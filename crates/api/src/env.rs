//! The one audited place that reads `K2_*` environment variables.
//!
//! Every knob of the pipeline used to read its own variable with
//! `std::env::var(..).ok().and_then(|v| v.parse().ok())`, which silently
//! ignored malformed values — `K2_EPOCHS=abc` behaved exactly like an unset
//! variable. All call sites now funnel through this module, which emits a
//! one-line diagnostic on stderr whenever a set variable cannot be parsed
//! (and then falls back, so a typo degrades loudly instead of invisibly).
//!
//! The functions return `None` both when the variable is unset and when it
//! is malformed; the caller keeps whatever value the lower configuration
//! layer produced. See [`crate::K2Config`] for the full layering
//! (defaults → config file → environment → builder overrides) and the
//! README for the consolidated knob table.

use bpf_interp::BackendKind;

/// Print the standard one-line malformed-knob diagnostic.
pub(crate) fn warn_malformed(name: &str, value: &str, expected: &str) {
    eprintln!("k2: warning: ignoring {name}={value:?}: expected {expected}");
}

/// Print the one-line diagnostic for a knob that no longer has any effect.
pub(crate) fn warn_removed(what: &str) {
    eprintln!("k2: warning: {what} no longer has any effect; ignoring it");
}

/// Check for a removed `K2_*` knob: when it is set, warn that it no longer
/// has any effect. Returns whether it was set.
pub fn removed(name: &str) -> bool {
    let set = string(name).is_some();
    if set {
        warn_removed(name);
    }
    set
}

/// Read a `K2_*` variable as a raw string. Never warns: any set value is a
/// valid string. Non-UTF-8 values are reported and treated as unset.
pub fn string(name: &str) -> Option<String> {
    match std::env::var(name) {
        Ok(v) => Some(v),
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(_)) => {
            warn_malformed(name, "<non-utf8>", "a UTF-8 string");
            None
        }
    }
}

/// Read a `K2_*` variable as a `u64`, warning on malformed values.
pub fn u64(name: &str) -> Option<u64> {
    let raw = string(name)?;
    match raw.trim().parse::<u64>() {
        Ok(v) => Some(v),
        Err(_) => {
            warn_malformed(name, &raw, "an unsigned integer");
            None
        }
    }
}

/// Read a `K2_*` variable as a `usize`, warning on malformed values.
pub fn usize(name: &str) -> Option<usize> {
    let raw = string(name)?;
    match raw.trim().parse::<usize>() {
        Ok(v) => Some(v),
        Err(_) => {
            warn_malformed(name, &raw, "an unsigned integer");
            None
        }
    }
}

/// Read a `K2_*` on/off flag. `0`, `false`, `off`, `no` and the empty string
/// are false; `1`, `true`, `on`, `yes` are true; anything else warns and is
/// treated as unset.
pub fn flag(name: &str) -> Option<bool> {
    let raw = string(name)?;
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "0" | "false" | "off" | "no" => Some(false),
        "1" | "true" | "on" | "yes" => Some(true),
        _ => {
            warn_malformed(name, &raw, "a boolean (0/1, true/false, on/off)");
            None
        }
    }
}

/// Read a `K2_*` variable as an execution-backend name
/// (`interp` / `jit` / `auto`), warning on anything else.
pub fn backend(name: &str) -> Option<BackendKind> {
    let raw = string(name)?;
    match BackendKind::parse(raw.trim()) {
        Some(kind) => Some(kind),
        None => {
            warn_malformed(name, &raw, "one of: interp, jit, auto");
            None
        }
    }
}

/// The process environment is global; every test in this crate that
/// touches it holds this lock so the assertions never race each other.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    use std::sync::{Mutex, OnceLock};
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_variables_read_as_none() {
        let _guard = test_lock();
        std::env::remove_var("K2_TEST_UNSET_KNOB");
        assert_eq!(u64("K2_TEST_UNSET_KNOB"), None);
        assert_eq!(flag("K2_TEST_UNSET_KNOB"), None);
        assert_eq!(string("K2_TEST_UNSET_KNOB"), None);
        assert_eq!(backend("K2_TEST_UNSET_KNOB"), None);
        assert!(!removed("K2_TEST_UNSET_KNOB"));
    }

    #[test]
    fn well_formed_values_parse() {
        let _guard = test_lock();
        std::env::set_var("K2_TEST_U64_KNOB", "42");
        assert_eq!(u64("K2_TEST_U64_KNOB"), Some(42));
        std::env::remove_var("K2_TEST_U64_KNOB");

        for (raw, want) in [
            ("1", true),
            ("true", true),
            ("ON", true),
            ("0", false),
            ("off", false),
            ("", false),
        ] {
            std::env::set_var("K2_TEST_FLAG_KNOB", raw);
            assert_eq!(flag("K2_TEST_FLAG_KNOB"), Some(want), "raw = {raw:?}");
        }
        std::env::remove_var("K2_TEST_FLAG_KNOB");

        std::env::set_var("K2_TEST_BACKEND_KNOB", "jit");
        assert_eq!(backend("K2_TEST_BACKEND_KNOB"), Some(BackendKind::Jit));
        std::env::remove_var("K2_TEST_BACKEND_KNOB");
    }

    #[test]
    fn malformed_values_fall_back_to_none() {
        let _guard = test_lock();
        // The satellite bugfix: `K2_EPOCHS=abc` must not behave like a silent
        // success — it warns on stderr (not capturable here) and reads as
        // unset so the lower layer's value survives.
        std::env::set_var("K2_TEST_BAD_KNOB", "abc");
        assert_eq!(u64("K2_TEST_BAD_KNOB"), None);
        assert_eq!(usize("K2_TEST_BAD_KNOB"), None);
        assert_eq!(backend("K2_TEST_BAD_KNOB"), None);
        std::env::set_var("K2_TEST_BAD_KNOB", "maybe");
        assert_eq!(flag("K2_TEST_BAD_KNOB"), None);
        std::env::remove_var("K2_TEST_BAD_KNOB");
    }

    #[test]
    fn removed_knobs_are_reported_whatever_their_value() {
        let _guard = test_lock();
        for raw in ["0", "1", "", "maybe"] {
            std::env::set_var("K2_TEST_REMOVED_KNOB", raw);
            assert!(removed("K2_TEST_REMOVED_KNOB"), "raw = {raw:?}");
        }
        std::env::remove_var("K2_TEST_REMOVED_KNOB");
        assert!(!removed("K2_TEST_REMOVED_KNOB"));
    }
}
