//! The one JSON writer the benchmark prints through.

/// A JSON value.
#[derive(Clone, Debug)]
pub enum Json {
    Bool(bool),
    Int(u64),
    /// A float, written with all its digits (non-finite values as `null`).
    Num(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, filled with [`Json::with`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a key (objects only; a no-op on other values).
    pub fn with(mut self, key: &str, value: Json) -> Json {
        if let Json::Obj(fields) = &mut self {
            fields.push((key.to_string(), value));
        }
        self
    }

    /// Renders the value on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            // `Display` for f64 is the shortest string that reads back to
            // the same bits, and never uses an exponent.
            Json::Num(x) if x.is_finite() => out.push_str(&x.to_string()),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_objects_and_escapes() {
        let j = Json::obj()
            .with("a", Json::Int(3))
            .with("b", Json::Num(0.5))
            .with("c", Json::Str("x\"y\n".to_string()))
            .with("d", Json::obj().with("e", Json::Bool(true)))
            .with("f", Json::Num(f64::NAN));
        assert_eq!(j.render(), r#"{"a": 3, "b": 0.5, "c": "x\"y\n", "d": {"e": true}, "f": null}"#);
    }

    #[test]
    fn floats_keep_all_digits_without_exponent() {
        assert_eq!(Json::Num(1.2034567891234).render(), "1.2034567891234");
        assert_eq!(Json::Num(1e-7).render(), "0.0000001");
        assert_eq!(Json::Num(2.0).render(), "2");
    }
}
