//! A minimal JSON object writer for the result line, provenance and spans.
//! The benchmark keeps its own rather than using `dhub-json`, so a change to
//! the program under test cannot change how its results are written.

/// Builds one JSON object, keys in insertion order.
#[derive(Default)]
pub struct Obj {
    parts: Vec<String>,
}

pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number with all its digits; non-finite values become null.
pub fn number(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    pub fn raw(&mut self, key: &str, json: &str) -> &mut Obj {
        self.parts.push(format!("{}: {}", escape(key), json));
        self
    }

    pub fn str(&mut self, key: &str, v: &str) -> &mut Obj {
        self.raw(key, &escape(v))
    }

    pub fn num(&mut self, key: &str, v: f64) -> &mut Obj {
        self.raw(key, &number(v))
    }

    pub fn bool(&mut self, key: &str, v: bool) -> &mut Obj {
        self.raw(key, if v { "true" } else { "false" })
    }

    pub fn finish(&self) -> String {
        format!("{{{}}}", self.parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_escaped_object() {
        let mut o = Obj::new();
        o.str("a\"b", "x\ny")
            .num("n", 1.25)
            .num("i", 3.0)
            .bool("t", true);
        assert_eq!(
            o.finish(),
            r#"{"a\"b": "x\ny", "n": 1.25, "i": 3, "t": true}"#
        );
    }
}
