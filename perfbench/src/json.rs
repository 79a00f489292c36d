//! A minimal JSON writer for the result line.

use std::fmt;

pub enum J {
    Num(f64),
    Int(i64),
    Bool(bool),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }
}

fn escape(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for J {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            J::Num(x) if x.is_finite() => write!(f, "{x}"),
            J::Num(_) => f.write_str("null"),
            J::Int(i) => write!(f, "{i}"),
            J::Bool(b) => write!(f, "{b}"),
            J::Str(s) => escape(f, s),
            J::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            J::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escape(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_nested_values() {
        let j = J::obj([
            ("a", J::Num(1.25)),
            (
                "b",
                J::Arr(vec![J::Int(2), J::Bool(true), J::Num(f64::NAN)]),
            ),
            ("c\"", J::str("x\ny")),
        ]);
        assert_eq!(
            j.to_string(),
            r#"{"a":1.25,"b":[2,true,null],"c\"":"x\u000ay"}"#
        );
    }
}
