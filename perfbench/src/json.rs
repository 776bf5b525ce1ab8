//! A small strict JSON reader for the service's documents.
//!
//! The service's own scanners are flat (a key is found at any depth),
//! and a job document repeats keys such as `cell_hits` in its report
//! and cache objects, so the benchmark parses the whole tree. Numbers
//! go through `str::parse::<f64>`, which is exact for the shortest
//! round-trip floats the service prints, so value bits survive.

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.i))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.ws();
        if self.s.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.eat(b':')?;
            members.push((key, self.value()?));
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("bad object at offset {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.s.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("bad array at offset {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected string at offset {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        while let Some(&b) = self.s.get(self.i) {
            self.i += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|_| "string is not UTF-8".into()),
                b'\\' => {
                    let esc = *self.s.get(self.i).ok_or("truncated escape")?;
                    self.i += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0c),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("truncated \\u")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u")?;
                            self.i += 4;
                            let c = char::from_u32(code).unwrap_or('\u{fffd}');
                            out.extend_from_slice(c.to_string().as_bytes());
                        }
                        _ => return Err(format!("bad escape at offset {}", self.i)),
                    }
                }
                _ => out.push(b),
            }
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        while let Some(&b) = self.s.get(self.i) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.i += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).map_err(|_| "bad number")?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number {text:?} at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_job_document_and_keeps_float_bits() {
        let v = 0.1f64 + 0.2;
        let doc = format!(
            r#"{{"job": 7, "report": {{"values": [{v}, -0, 1e-300]}}, "cache": {{"cell_hits": 3}}, "error": "a \"b\""}}"#
        );
        let parsed = parse(&doc).unwrap();
        let values = parsed
            .get("report")
            .unwrap()
            .get("values")
            .unwrap()
            .arr()
            .unwrap();
        assert_eq!(values[0].num().unwrap().to_bits(), v.to_bits());
        assert_eq!(values[1].num().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(
            parsed.get("cache").unwrap().get("cell_hits").unwrap().num(),
            Some(3.0)
        );
        assert_eq!(parsed.get("error").unwrap().str(), Some("a \"b\""));
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("[1, 2").is_err());
    }
}
