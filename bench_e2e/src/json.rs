//! JSON in and out, over the repository's vendored `serde` value tree.

pub use serde::Value as Json;

/// Lets the vendored `serde_json` parse into, and print from, a bare tree.
struct Tree(Json);

impl serde::Deserialize for Tree {
    fn from_value(v: &Json) -> Result<Self, serde::Error> {
        Ok(Tree(v.clone()))
    }
}

impl serde::Serialize for Tree {
    fn to_value(&self) -> Json {
        self.0.clone()
    }
}

pub fn parse(text: &str) -> Result<Json, String> {
    serde_json::from_str::<Tree>(text)
        .map(|t| t.0)
        .map_err(|e| e.to_string())
}

/// Compact, single-line JSON. Floats keep every digit they were measured
/// with (shortest representation that reads back to the same value).
pub fn render(value: Json) -> String {
    serde_json::to_string(&Tree(value)).expect("measured values are finite")
}

pub fn object(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn string(s: &str) -> Json {
    Json::Str(s.to_string())
}

/// Read access to a parsed tree.
pub trait JsonExt {
    fn get(&self, key: &str) -> Option<&Json>;
    fn as_array(&self) -> Option<&[Json]>;
    fn as_object(&self) -> Option<&[(String, Json)]>;
    fn as_str(&self) -> Option<&str>;
    fn as_f64(&self) -> Option<f64>;
}

impl JsonExt for Json {
    fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Float(f) => Some(f),
            Json::UInt(u) => Some(u as f64),
            Json::Int(i) => Some(i as f64),
            _ => None,
        }
    }
}
