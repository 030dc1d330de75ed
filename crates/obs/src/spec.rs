//! The grammar of the `MOTOR_*` configuration variables, stated once.
//!
//! A value is a comma list of `key=value` pairs and bare tokens
//! (`MOTOR_DOCTOR=deadline_ms=500,abort=86`, `MOTOR_TELEMETRY=1`). Unset,
//! empty, `0` and `off` mean the feature stays off. What a key or a bare
//! token means is its owner's match block
//! ([`DoctorConfig::parse`](crate::DoctorConfig::parse), motor-core's
//! `TelemetryConfig::parse`); a key the owner does not know and a value
//! that does not parse are errors, and [`from_env`] reports them loudly —
//! a mistyped liveness gate must not quietly run the defaults.
//! `MOTOR_PROGRESS` (motor-mpc's `ProgressMode::from_env`) is a bare
//! token in the same grammar: `off` or `thread`.

use std::str::FromStr;

/// The `(key, value)` pairs of `spec`; a bare token is a key without a
/// value. Whitespace around either is dropped, empty items are skipped.
pub fn pairs(spec: &str) -> impl Iterator<Item = (&str, Option<&str>)> {
    spec.split(',')
        .map(str::trim)
        .filter(|item| !item.is_empty())
        .map(|item| match item.split_once('=') {
            Some((key, value)) => (key.trim(), Some(value.trim())),
            None => (item, None),
        })
}

/// The value of `key`, parsed; an absent or unparsable one is an error
/// naming the key.
pub fn value<T: FromStr>(key: &str, value: Option<&str>) -> Result<T, String> {
    let text = value.ok_or_else(|| format!("{key} needs a value ({key}=...)"))?;
    text.parse()
        .map_err(|_| format!("{key}: cannot parse {text:?}"))
}

/// The configuration the variable `var` asks for: `None` when it is
/// unset, empty, `0` or `off`; otherwise its value through `parse`.
///
/// # Panics
/// When `parse` rejects the value, with the variable and the reason.
pub fn from_env<T>(var: &str, parse: impl FnOnce(&str) -> Result<T, String>) -> Option<T> {
    let spec = std::env::var(var).ok()?;
    if matches!(spec.trim(), "" | "0" | "off") {
        return None;
    }
    Some(parse(&spec).unwrap_or_else(|why| panic!("{var}: {why}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_split_keys_values_and_bare_tokens() {
        let got: Vec<_> = pairs(" a=1, on ,,b = x=y ,127.0.0.1:9 ").collect();
        assert_eq!(
            got,
            [
                ("a", Some("1")),
                ("on", None),
                ("b", Some("x=y")),
                ("127.0.0.1:9", None)
            ]
        );
        assert_eq!(pairs("").count(), 0);
    }

    #[test]
    fn values_parse_or_name_their_key() {
        assert_eq!(value::<u64>("deadline_ms", Some("250")), Ok(250));
        let err = value::<u64>("deadline_ms", Some("soon")).unwrap_err();
        assert!(err.contains("deadline_ms") && err.contains("soon"), "{err}");
        assert!(value::<u64>("abort", None).unwrap_err().contains("abort"));
    }

    /// One test owns its variable: tests share the process environment.
    #[test]
    fn from_env_is_off_unless_asked_and_loud_when_malformed() {
        const VAR: &str = "SPEC_RS_SELFTEST";
        let parse = |s: &str| s.parse::<u32>().map_err(|e| e.to_string());
        std::env::remove_var(VAR);
        assert_eq!(from_env(VAR, parse), None);
        for off in ["", " ", "0", "off"] {
            std::env::set_var(VAR, off);
            assert_eq!(from_env(VAR, parse), None, "{off:?}");
        }
        std::env::set_var(VAR, "7");
        assert_eq!(from_env(VAR, parse), Some(7));
        std::env::set_var(VAR, "seven");
        let panic = std::panic::catch_unwind(|| from_env(VAR, parse)).expect_err("malformed");
        let why = panic.downcast_ref::<String>().expect("a formatted message");
        assert!(why.starts_with("SPEC_RS_SELFTEST: "), "{why}");
        std::env::remove_var(VAR);
    }
}
