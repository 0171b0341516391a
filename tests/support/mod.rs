//! Helpers shared by the integration tests that read planner replies.

/// The number after `"key":` in a planner reply frame.
pub fn json_f64(text: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    let start = text.find(&pat).expect("key present") + pat.len();
    let end = text[start..]
        .find([',', '}', ']'])
        .expect("value terminated");
    text[start..start + end].parse().expect("f64 value")
}
