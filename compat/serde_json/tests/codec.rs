//! What the streaming codec promises, checked from outside it: the JSON
//! the derive writes, what the reader accepts and refuses, and that no
//! input — random, truncated or bit-flipped — makes it panic. CI also runs
//! this file with overflow checks on: the tokenizer walks offsets and
//! digits an attacker chooses.

use serde::{Deserialize, Serialize};
use serde_json::{from_str, to_string, to_string_pretty, Number, Value};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Unit;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Newtype(u32);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pair(i64, String);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Newtype(u8),
    Tuple(i8, bool),
    Struct { a: u16, b: Option<char> },
}

fn seven() -> u32 {
    7
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct All {
    unit: Unit,
    newtype: Newtype,
    pair: Pair,
    shapes: Vec<Shape>,
    array: [u64; 3],
    one: (u8,),
    two: (u8, i8),
    three: (u8, i8, bool),
    four: (u8, i8, bool, String),
    required: Option<u8>,
    #[serde(default)]
    defaulted: Option<u8>,
    #[serde(default = "seven")]
    pathed: u32,
    floats: (f64, f32),
    empty: Vec<u8>,
}

fn all() -> All {
    All {
        unit: Unit,
        newtype: Newtype(5),
        pair: Pair(-3, "p".into()),
        shapes: vec![
            Shape::Unit,
            Shape::Newtype(255),
            Shape::Tuple(-128, true),
            Shape::Struct {
                a: 65535,
                b: Some('é'),
            },
            Shape::Struct { a: 0, b: None },
        ],
        array: [0, 1, u64::MAX],
        one: (1,),
        two: (2, -2),
        three: (3, -3, false),
        four: (4, -4, true, "t".into()),
        required: None,
        defaulted: Some(9),
        pathed: 8,
        floats: (2.0, 0.1),
        empty: vec![],
    }
}

const ALL_COMPACT: &str = r#"{"unit":null,"newtype":5,"pair":[-3,"p"],"shapes":["Unit",{"Newtype":255},{"Tuple":[-128,true]},{"Struct":{"a":65535,"b":"é"}},{"Struct":{"a":0,"b":null}}],"array":[0,1,18446744073709551615],"one":[1],"two":[2,-2],"three":[3,-3,false],"four":[4,-4,true,"t"],"required":null,"defaulted":9,"pathed":8,"floats":[2.0,0.10000000149011612],"empty":[]}"#;

#[test]
fn derived_shapes_write_upstream_json_and_read_back() {
    assert_eq!(to_string(&all()).unwrap(), ALL_COMPACT);
    assert_eq!(from_str::<All>(ALL_COMPACT).unwrap(), all());
    let pretty = to_string_pretty(&all()).unwrap();
    assert!(pretty.starts_with(
        "{\n  \"unit\": null,\n  \"newtype\": 5,\n  \"pair\": [\n    -3,\n    \"p\"\n  ],"
    ));
    assert!(pretty.ends_with("\n  ],\n  \"empty\": []\n}"), "{pretty}");
    assert_eq!(from_str::<All>(&pretty).unwrap(), all());
    // A document is one more type: through it and back changes nothing.
    let doc = serde_json::to_value(&all()).unwrap();
    assert_eq!(to_string(&doc).unwrap(), ALL_COMPACT);
    assert_eq!(serde_json::from_value::<All>(&doc).unwrap(), all());
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Small {
    a: u8,
    b: String,
    #[serde(default)]
    c: Vec<u8>,
}

#[test]
fn fields_parse_in_any_order_unknown_skipped_first_duplicate_wins() {
    let want = Small {
        a: 1,
        b: "x".into(),
        c: vec![2],
    };
    let texts = [
        r#"{"a":1,"b":"x","c":[2]}"#,
        r#" { "c" : [ 2 ] , "b" : "x" , "a" : 1 } "#,
        r#"{"new":{"deep":[1,{"k":null}],"s":"\u00e9"},"a":1,"other":-1.5e3,"b":"x","c":[2],"z":true}"#,
        // Later duplicates lose, even ones of the wrong type.
        r#"{"a":1,"a":2,"b":"x","b":[],"c":[2],"c":null}"#,
    ];
    for text in texts {
        assert_eq!(from_str::<Small>(text).unwrap(), want, "{text}");
    }
    // A skipped field is still checked for syntax, and the first duplicate
    // for type.
    for text in [
        r#"{"a":1,"b":"x","new":[1,}"#,
        r#"{"a":1,"b":"x","new":tru}"#,
        r#"{"a":1,"b":"x","new":"\q"}"#,
        r#"{"a":"1","a":1,"b":"x"}"#,
        r#"{"a":1,"b":"x"} x"#,
        r#"{"a":1,"b":"x",}"#,
        r#"{"a":1 "b":"x"}"#,
        r#"{"a" 1,"b":"x"}"#,
        r#"{a:1,"b":"x"}"#,
    ] {
        assert!(from_str::<Small>(text).is_err(), "{text}");
    }
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Opts {
    bare: Option<u8>,
    #[serde(default)]
    defaulted: Option<u8>,
}

#[test]
fn option_missing_is_not_null_unless_defaulted() {
    let parsed = |text| from_str::<Opts>(text).map_err(|e| e.to_string());
    let opts = |bare, defaulted| Ok(Opts { bare, defaulted });
    assert_eq!(
        parsed(r#"{"bare":null,"defaulted":null}"#),
        opts(None, None)
    );
    assert_eq!(
        parsed(r#"{"bare":1,"defaulted":2}"#),
        opts(Some(1), Some(2))
    );
    assert_eq!(parsed(r#"{"bare":null}"#), opts(None, None));
    let err = parsed(r#"{"defaulted":2}"#).unwrap_err();
    assert!(err.contains("missing field `bare` for Opts"), "{err}");
}

#[test]
fn error_texts_callers_match_on() {
    let err = |r: Result<All, serde_json::Error>| r.unwrap_err().to_string();
    assert!(err(from_str("{}")).contains("missing field `unit` for All"));
    let text = ALL_COMPACT.replace("\"Unit\"", "\"Circle\"");
    assert!(err(from_str(&text)).contains("unknown unit variant `Circle` for enum Shape"));
    let text = ALL_COMPACT.replace("{\"Newtype\":255}", "{\"Oval\":255}");
    assert!(err(from_str(&text)).contains("unknown variant `Oval` for enum Shape"));
    let text = ALL_COMPACT.replace("{\"Newtype\":255}", "{\"Newtype\":256}");
    let e = err(from_str(&text));
    assert!(
        e.contains("256 out of range for u8") && e.contains("field `shapes` of All"),
        "{e}"
    );
    for bad in [
        "{\"Newtype\":1,\"Unit\":2}",
        "{}",
        "[]",
        "7",
        "{\"Unit\":null}",
    ] {
        assert!(from_str::<Shape>(bad).is_err(), "{bad}");
    }
    for bad in ["[1]", "[1,true,3]", "{}"] {
        assert!(from_str::<(u8, bool)>(bad).is_err(), "{bad}");
        assert!(
            from_str::<Shape>(&format!("{{\"Tuple\":{bad}}}")).is_err(),
            "{bad}"
        );
    }
    assert!(from_str::<[u8; 2]>("[1,2,3]").is_err());
    assert!(from_str::<Unit>("0").is_err());
    assert!(from_str::<char>("\"ab\"").is_err() && from_str::<char>("\"\"").is_err());
}

#[test]
fn number_edges() {
    assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
    assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");
    assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
    assert_eq!(to_string(&i64::MIN).unwrap(), "-9223372036854775808");
    assert_eq!(
        to_string(&(0u8, -1i8, i32::MIN)).unwrap(),
        "[0,-1,-2147483648]"
    );
    // One past `u64::MAX` is no integer here, but it is a number.
    let past = "18446744073709551616";
    assert!(from_str::<u64>(past).is_err());
    assert_eq!(from_str::<f64>(past).unwrap(), 18446744073709551616.0);
    assert_eq!(
        from_str::<Value>(past).unwrap(),
        Value::Number(Number::Float(1.8446744073709552e19))
    );
    assert!(from_str::<i64>("-9223372036854775809").is_err());
    let e = from_str::<u8>("300").unwrap_err().to_string();
    assert!(e.contains("300 out of range for u8"), "{e}");
    let e = from_str::<u32>("-1").unwrap_err().to_string();
    assert!(e.contains("-1 out of range for u32"), "{e}");
    assert!(from_str::<u64>("1.0").is_err() && from_str::<u64>("1e2").is_err());
    assert!(from_str::<i8>("-129").is_err() && from_str::<i8>("128").is_err());
    // Floats: sign of zero, huge, tiny, integral, and what is not finite.
    assert_eq!(to_string(&-0.0f64).unwrap(), "-0.0");
    assert!(from_str::<f64>("-0.0").unwrap().is_sign_negative());
    assert_eq!(from_str::<f64>("1e300").unwrap(), 1e300);
    assert_eq!(
        from_str::<f64>(&to_string(&1e300f64).unwrap()).unwrap(),
        1e300
    );
    assert_eq!(from_str::<f64>("5").unwrap(), 5.0);
    assert_eq!(from_str::<f64>("-5").unwrap(), -5.0);
    assert_eq!(
        to_string(&[2.0f64, 0.1, 1e-7, f64::MIN_POSITIVE / 2.0]).unwrap(),
        format!("[2.0,0.1,0.0000001,{}]", f64::MIN_POSITIVE / 2.0)
    );
    for f in [
        0.1f64,
        1.7300000000000002,
        f64::MAX,
        f64::MIN_POSITIVE,
        123456789.125,
    ] {
        assert_eq!(from_str::<f64>(&to_string(&f).unwrap()).unwrap(), f);
    }
    assert_eq!(
        to_string(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]).unwrap(),
        "[null,null,null]"
    );
    assert!(from_str::<f64>("null").unwrap().is_nan());
    assert!(from_str::<f64>("1e999").unwrap().is_infinite());
    for bad in [
        "-", "1e", "1e+", "--1", "+1", ".5", "0x10", "1 2", "", " ", "NaN", "nul", "truee",
    ] {
        assert!(from_str::<f64>(bad).is_err(), "{bad:?}");
        assert!(from_str::<Value>(bad).is_err(), "{bad:?}");
    }
}

#[test]
fn string_edges() {
    let read = |text: &str| from_str::<String>(text).map_err(|e| e.to_string());
    assert_eq!(
        read(r#""\"\\\/\b\f\n\r\t""#).unwrap(),
        "\"\\/\u{8}\u{c}\n\r\t"
    );
    assert_eq!(read(r#""\u0001\u00e9\u20AC""#).unwrap(), "\u{1}é€");
    assert_eq!(read(r#""\ud83d\ude00""#).unwrap(), "😀");
    assert_eq!(read("\"aé😀\tb\"").unwrap(), "aé😀\tb");
    for bad in [
        r#""\ud83d""#,
        r#""\ud83dx""#,
        r#""\ud83d\n""#,
        r#""\ud83d\u0041""#,
        r#""\ude00""#,
        r#""\u12""#,
        r#""\u12g4""#,
        r#""\u+123""#,
        r#""\x41""#,
        r#""\"#,
        r#""\""#,
        r#""abc"#,
        r#"abc""#,
        "\"\\é\"",
    ] {
        assert!(read(bad).is_err(), "{bad}");
    }
    // Written: the five short escapes, `\u00XX` for other controls, and
    // everything else (DEL, non-ASCII) as itself.
    let every: String = (0u8..=0x7f).map(char::from).chain("é€😀".chars()).collect();
    let text = to_string(&every).unwrap();
    assert!(text.starts_with(
        r#""\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008\t\n\u000b\u000c\r\u000e"#
    ));
    assert!(
        text.contains(r##"\u001f !\"#$"##)
            && text.contains(r#"[\\]"#)
            && text.ends_with("~\u{7f}é€😀\"")
    );
    assert_eq!(read(&text).unwrap(), every);
    assert_eq!(to_string(&'"').unwrap(), r#""\"""#);
    assert_eq!(from_str::<char>(r#""\u00e9""#).unwrap(), 'é');
    // Keys are strings too.
    let doc = Value::Object(vec![
        ("a\"\n".into(), Value::Null),
        ("a\"\n".into(), Value::Bool(true)),
    ]);
    let text = to_string(&doc).unwrap();
    assert_eq!(text, r#"{"a\"\n":null,"a\"\n":true}"#);
    assert_eq!(from_str::<Value>(&text).unwrap(), doc);
    assert_eq!(doc.get("a\"\n"), Some(&Value::Null), "first duplicate wins");
}

#[test]
fn nesting_is_capped_not_recursed() {
    let nested = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
    assert!(from_str::<Value>(&nested("[", "]", 128)).is_ok());
    assert!(from_str::<Value>(&nested("{\"a\":", "}", 127).replace(":}", ":1}")).is_ok());
    for deep in [129, 100_000] {
        for doc in [
            nested("[", "]", deep),
            "[".repeat(deep),
            "{\"a\":".repeat(deep),
        ] {
            let e = from_str::<Value>(&doc).unwrap_err().to_string();
            assert!(e.contains("nesting deeper than 128"), "{e}");
            // The same document as a field nobody asked for.
            let text = format!("{{\"a\":1,\"b\":\"x\",\"new\":{doc}}}");
            let e = from_str::<Small>(&text).unwrap_err().to_string();
            assert!(e.contains("nesting deeper than 128"), "{e}");
            assert!(from_str::<Vec<Vec<Value>>>(&doc).is_err());
        }
    }
}

/// SplitMix64: the tests need spread, not quality.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn string(&mut self) -> String {
        const ALPHABET: [char; 12] = [
            'a', 'Z', '0', ' ', '"', '\\', '\n', '\u{1}', '\u{7f}', 'é', '€', '😀',
        ];
        (0..self.below(8))
            .map(|_| ALPHABET[self.below(12) as usize])
            .collect()
    }

    /// A document that parses back equal: finite floats only (others are
    /// written as `null`), and `NegInt` only below zero (`NegInt(5)` prints
    /// as `5`, which reads as `PosInt`).
    fn value(&mut self, depth: u32) -> Value {
        let leaf = if depth == 0 { 6 } else { 8 };
        match self.below(leaf) {
            0 => Value::Null,
            1 => Value::Bool(self.next() & 1 == 1),
            2 => Value::Number(Number::PosInt(self.next() >> self.below(64))),
            3 => Value::Number(Number::NegInt(
                -1 - (self.next() >> (1 + self.below(63))) as i64,
            )),
            4 => match f64::from_bits(self.next()) {
                f if f.is_finite() => Value::Number(Number::Float(f)),
                _ => Value::Number(Number::Float(self.below(1000) as f64 / 8.0)),
            },
            5 => Value::String(self.string()),
            6 => Value::Array((0..self.below(5)).map(|_| self.value(depth - 1)).collect()),
            _ => Value::Object(
                (0..self.below(5))
                    .map(|_| (self.string(), self.value(depth - 1)))
                    .collect(),
            ),
        }
    }
}

#[test]
fn random_documents_round_trip_compact_and_pretty() {
    let mut rng = Rng(16);
    for case in 0..2_000 {
        let doc = rng.value(4);
        let compact = to_string(&doc).unwrap();
        let pretty = to_string_pretty(&doc).unwrap();
        assert_eq!(
            from_str::<Value>(&compact).unwrap(),
            doc,
            "case {case}: {compact}"
        );
        assert_eq!(
            from_str::<Value>(&pretty).unwrap(),
            doc,
            "case {case}: {pretty}"
        );
        // Re-encoding what was read is a fixed point.
        assert_eq!(
            to_string(&from_str::<Value>(&pretty).unwrap()).unwrap(),
            compact
        );
        let squeezed: String = pretty.split('\n').map(str::trim_start).collect();
        assert_eq!(
            squeezed.replace("\": ", "\":").len(),
            compact.len(),
            "case {case}"
        );
    }
}

/// Every truncation and every single-bit flip of `text` through `parse`:
/// any outcome but a panic. A flip that breaks the UTF-8 never reaches the
/// codec (`&str` in; the fleet refuses such a frame by name before parsing).
fn mutate(text: &str, parse: impl Fn(&str) -> bool) {
    for cut in 0..text.len() {
        if text.is_char_boundary(cut) {
            parse(&text[..cut]);
        }
    }
    for at in 0..text.len() {
        for bit in 0..8 {
            let mut bytes = text.as_bytes().to_vec();
            bytes[at] ^= 1 << bit;
            if let Ok(flipped) = String::from_utf8(bytes) {
                parse(&flipped);
            }
        }
    }
}

#[test]
fn truncated_and_flipped_documents_never_panic() {
    let corpus = [
        include_str!("../../../tests/golden/store.jsonl"),
        include_str!("../../../tests/golden/telemetry.jsonl"),
        include_str!("../../../tests/golden/report.json"),
        include_str!("../../../tests/golden/machine_altix8.json"),
    ];
    for file in corpus {
        let docs: Vec<&str> = if file.starts_with("{\n") {
            vec![file]
        } else {
            file.lines().collect()
        };
        for doc in docs {
            assert!(from_str::<Value>(doc).is_ok());
            mutate(doc, |t| from_str::<Value>(t).is_ok());
            // Cut short, an object is never a whole document.
            for cut in (0..doc.trim_end().len()).filter(|&c| doc.is_char_boundary(c)) {
                assert!(from_str::<Value>(&doc[..cut]).is_err(), "{}", &doc[..cut]);
            }
        }
    }
    mutate(ALL_COMPACT, |t| from_str::<All>(t).is_ok());
    mutate(&to_string_pretty(&all()).unwrap(), |t| {
        from_str::<All>(t).is_ok()
    });
    // Whatever a mutation still parses to writes and reads back.
    mutate(ALL_COMPACT, |t| match from_str::<All>(t) {
        Ok(v) => from_str::<All>(&to_string(&v).unwrap()).is_ok(),
        Err(_) => false,
    });
}
