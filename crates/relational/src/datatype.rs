//! Declared attribute datatypes and cast semantics.

use crate::column::ValueRef;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Declared type of an attribute.
///
/// The value-fit detector (paper §5.1) keys its statistics selection on the
/// *target* attribute's datatype, and the `hasIncompatibleValues` rule of
/// Algorithm 1 asks whether source values can be cast to it — both are
/// served by [`DataType::admits`] and [`DataType::try_cast`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integers.
    Integer,
    /// 64-bit floats.
    Float,
    /// UTF-8 strings.
    Text,
    /// Booleans.
    Boolean,
}

impl DataType {
    /// All datatypes, in a stable order.
    pub const ALL: [DataType; 4] = [
        DataType::Integer,
        DataType::Float,
        DataType::Text,
        DataType::Boolean,
    ];

    /// `true` iff the datatype is numeric (integer or float).
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Integer | DataType::Float)
    }

    /// `true` iff a non-null value is directly of this type (no cast).
    pub fn admits(self, value: &Value) -> bool {
        match (self, value) {
            (_, Value::Null) => true,
            (DataType::Integer, Value::Int(_)) => true,
            // Integers widen losslessly into float attributes.
            (DataType::Float, Value::Float(_) | Value::Int(_)) => true,
            (DataType::Text, Value::Text(_)) => true,
            (DataType::Boolean, Value::Bool(_)) => true,
            _ => false,
        }
    }

    /// Attempt to cast `value` into this datatype.
    ///
    /// The cast rules mirror what an integration practitioner can do with a
    /// plain SQL `CAST`:
    ///
    /// * anything casts to [`DataType::Text`] via its rendering;
    /// * numeric strings cast to numbers; floats cast to integers only when
    ///   they are integral;
    /// * `"true"`/`"false"` (case-insensitive) and `0`/`1` cast to booleans.
    ///
    /// Returns `None` when the value cannot be represented — exactly the
    /// condition the `hasIncompatibleValues` rule counts.
    pub fn try_cast(self, value: &Value) -> Option<Value> {
        match (self, value) {
            (_, Value::Null) => Some(Value::Null),
            (DataType::Integer, Value::Int(i)) => Some(Value::Int(*i)),
            (DataType::Integer, Value::Float(f)) => {
                if f.fract() == 0.0 && f.is_finite() && *f >= i64::MIN as f64 && *f <= i64::MAX as f64
                {
                    Some(Value::Int(*f as i64))
                } else {
                    None
                }
            }
            (_, Value::Text(s)) => self.cast_text(s).map(ValueRef::to_value),
            (DataType::Integer, Value::Bool(b)) => Some(Value::Int(*b as i64)),
            (DataType::Float, Value::Int(i)) => Some(Value::Float(*i as f64)),
            (DataType::Float, Value::Float(f)) => Some(Value::Float(*f)),
            (DataType::Float, Value::Bool(b)) => Some(Value::Float(*b as i64 as f64)),
            (DataType::Text, v) => Some(Value::Text(v.render())),
            (DataType::Boolean, Value::Bool(b)) => Some(Value::Bool(*b)),
            (DataType::Boolean, Value::Int(0)) => Some(Value::Bool(false)),
            (DataType::Boolean, Value::Int(1)) => Some(Value::Bool(true)),
            (DataType::Boolean, _) => None,
        }
    }

    /// Cast a text payload into this datatype: exactly
    /// `self.try_cast(&Value::Text(s.into()))`, without building the
    /// `Value` — a text result borrows `s`. The upload parser casts CSV
    /// fields and JSON text cells through it.
    pub fn cast_text(self, s: &str) -> Option<ValueRef<'_>> {
        match self {
            DataType::Integer => s.trim().parse::<i64>().ok().map(ValueRef::Int),
            DataType::Float => s.trim().parse::<f64>().ok().map(ValueRef::Float),
            DataType::Text => Some(ValueRef::Text(s)),
            DataType::Boolean => match s.trim().to_ascii_lowercase().as_str() {
                "true" | "t" | "yes" | "1" => Some(ValueRef::Bool(true)),
                "false" | "f" | "no" | "0" => Some(ValueRef::Bool(false)),
                _ => None,
            },
        }
    }

    /// `true` iff a text payload casts into this datatype. The columnar
    /// profiler uses this to run cast checks once per *distinct*
    /// dictionary string.
    pub fn casts_text(self, s: &str) -> bool {
        self.cast_text(s).is_some()
    }

    /// Infer the narrowest datatype that admits every value in `values`.
    ///
    /// Used by the CSV loader and by schema reverse engineering when a
    /// source arrives without type declarations (paper §3.1: "for some
    /// sources (e.g., data dumps), a schema definition may be completely
    /// missing").
    pub fn infer<'a>(values: impl IntoIterator<Item = &'a Value>) -> DataType {
        let mut candidate: Option<DataType> = None;
        for v in values {
            let this = match v {
                Value::Null => continue,
                Value::Int(_) => DataType::Integer,
                Value::Float(_) => DataType::Float,
                Value::Bool(_) => DataType::Boolean,
                Value::Text(_) => DataType::Text,
            };
            candidate = Some(match candidate {
                None => this,
                Some(prev) if prev == this => prev,
                Some(DataType::Integer) if this == DataType::Float => DataType::Float,
                Some(DataType::Float) if this == DataType::Integer => DataType::Float,
                Some(_) => DataType::Text,
            });
        }
        candidate.unwrap_or(DataType::Text)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DataType::Integer => "integer",
            DataType::Float => "float",
            DataType::Text => "text",
            DataType::Boolean => "boolean",
        };
        write!(f, "{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_respects_declared_types() {
        assert!(DataType::Integer.admits(&Value::Int(1)));
        assert!(!DataType::Integer.admits(&Value::Text("1".into())));
        assert!(DataType::Float.admits(&Value::Int(1)));
        assert!(DataType::Text.admits(&Value::Null));
    }

    #[test]
    fn int_to_text_cast_always_succeeds() {
        assert_eq!(
            DataType::Text.try_cast(&Value::Int(215900)),
            Some(Value::Text("215900".into()))
        );
    }

    #[test]
    fn text_to_int_cast_requires_numeric_content() {
        assert_eq!(
            DataType::Integer.try_cast(&Value::Text(" 42 ".into())),
            Some(Value::Int(42))
        );
        assert_eq!(DataType::Integer.try_cast(&Value::Text("4:43".into())), None);
    }

    #[test]
    fn float_to_int_requires_integral_value() {
        assert_eq!(
            DataType::Integer.try_cast(&Value::Float(3.0)),
            Some(Value::Int(3))
        );
        assert_eq!(DataType::Integer.try_cast(&Value::Float(3.5)), None);
        assert_eq!(DataType::Integer.try_cast(&Value::Float(f64::NAN)), None);
    }

    #[test]
    fn boolean_casts() {
        assert_eq!(
            DataType::Boolean.try_cast(&Value::Text("Yes".into())),
            Some(Value::Bool(true))
        );
        assert_eq!(DataType::Boolean.try_cast(&Value::Int(2)), None);
    }

    #[test]
    fn null_casts_to_anything() {
        for dt in DataType::ALL {
            assert_eq!(dt.try_cast(&Value::Null), Some(Value::Null));
        }
    }

    #[test]
    fn casts_text_agrees_with_try_cast() {
        let samples = [
            "42", " 42 ", "4:43", "3.5", "1e3", "true", "Yes", "f", "0", "", "∞", "NaN",
        ];
        for dt in DataType::ALL {
            for s in samples {
                assert_eq!(
                    dt.casts_text(s),
                    dt.try_cast(&Value::Text(s.into())).is_some(),
                    "{dt} disagrees on {s:?}"
                );
            }
        }
    }

    #[test]
    fn inference_widens_sensibly() {
        let ints = [Value::Int(1), Value::Null, Value::Int(2)];
        assert_eq!(DataType::infer(ints.iter()), DataType::Integer);
        let mixed = [Value::Int(1), Value::Float(2.5)];
        assert_eq!(DataType::infer(mixed.iter()), DataType::Float);
        let hetero = [Value::Int(1), Value::Text("a".into())];
        assert_eq!(DataType::infer(hetero.iter()), DataType::Text);
        let empty: [Value; 0] = [];
        assert_eq!(DataType::infer(empty.iter()), DataType::Text);
    }
}
