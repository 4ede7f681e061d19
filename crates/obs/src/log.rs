//! Leveled structured logging with an optional JSONL sink.
//!
//! Library crates log through [`crate::error!`] … [`crate::trace!`] instead
//! of raw `println!`/`eprintln!` (scripts/check.sh greps for regressions).
//! Messages at or below the active level go to stderr — stdout stays
//! reserved for figure/CSV output — and, when a sink is installed via
//! [`set_jsonl_path`], to a JSON-lines file for machine consumption.
//!
//! The level comes from `SWT_LOG` (`off|error|warn|info|debug|trace`,
//! default `info`) or [`set_max_level`]. The level check is one relaxed
//! atomic load and happens *before* message formatting.

use crate::json::escape;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    Error = 1,
    Warn = 2,
    Info = 3,
    Debug = 4,
    Trace = 5,
}

impl Level {
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parse a level name; `off` and unknown names mean "log nothing".
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Sentinel: level not yet initialised from the environment.
const LEVEL_UNSET: u8 = u8::MAX;

static MAX_LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

fn max_level() -> u8 {
    let l = MAX_LEVEL.load(Ordering::Relaxed);
    if l != LEVEL_UNSET {
        return l;
    }
    let from_env = std::env::var("SWT_LOG")
        .ok()
        .map(|v| Level::parse(&v).map_or(0, |l| l as u8))
        .unwrap_or(Level::Info as u8);
    MAX_LEVEL.store(from_env, Ordering::Relaxed);
    from_env
}

/// Override the active level (e.g. `set_max_level(Some(Level::Debug))`;
/// `None` silences logging entirely).
pub fn set_max_level(level: Option<Level>) {
    MAX_LEVEL.store(level.map_or(0, |l| l as u8), Ordering::Relaxed);
}

/// Whether a message at `level` would be emitted.
#[inline]
pub fn log_enabled(level: Level) -> bool {
    level as u8 <= max_level()
}

static JSONL: Mutex<Option<BufWriter<File>>> = Mutex::new(None);

/// Send every emitted record to `path` as JSON lines (in addition to
/// stderr). Replaces any previous sink; the file is created or truncated.
pub fn set_jsonl_path(path: &Path) -> io::Result<()> {
    let file = File::create(path)?;
    *JSONL.lock().unwrap_or_else(|e| e.into_inner()) = Some(BufWriter::new(file));
    Ok(())
}

/// Emit one record. Callers go through the macros, which check
/// [`log_enabled`] first so disabled messages are never formatted.
pub fn log(level: Level, target: &str, args: fmt::Arguments<'_>) {
    let msg = args.to_string();
    eprintln!("[{:<5} {target}] {msg}", level.name());
    let mut sink = JSONL.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(w) = sink.as_mut() {
        let ts_ms =
            SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_millis() as u64);
        let line = format!(
            "{{\"ts_ms\":{ts_ms},\"level\":{},\"target\":{},\"msg\":{}}}",
            escape(level.name()),
            escape(target),
            escape(&msg)
        );
        // Flush per record so logs survive crashes and are tail-able.
        let ok = writeln!(w, "{line}").and_then(|_| w.flush());
        if ok.is_err() {
            *sink = None; // drop a broken sink instead of erroring forever
        }
    }
}

/// Log at [`Level::Error`]: `error!("target", "format {}", args)`.
#[macro_export]
macro_rules! error {
    ($target:expr, $($arg:tt)+) => {
        if $crate::log::log_enabled($crate::log::Level::Error) {
            $crate::log::log($crate::log::Level::Error, $target, format_args!($($arg)+));
        }
    };
}

/// Log at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($target:expr, $($arg:tt)+) => {
        if $crate::log::log_enabled($crate::log::Level::Warn) {
            $crate::log::log($crate::log::Level::Warn, $target, format_args!($($arg)+));
        }
    };
}

/// Log at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($target:expr, $($arg:tt)+) => {
        if $crate::log::log_enabled($crate::log::Level::Info) {
            $crate::log::log($crate::log::Level::Info, $target, format_args!($($arg)+));
        }
    };
}

/// Log at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($target:expr, $($arg:tt)+) => {
        if $crate::log::log_enabled($crate::log::Level::Debug) {
            $crate::log::log($crate::log::Level::Debug, $target, format_args!($($arg)+));
        }
    };
}

/// Log at [`Level::Trace`].
#[macro_export]
macro_rules! trace {
    ($target:expr, $($arg:tt)+) => {
        if $crate::log::log_enabled($crate::log::Level::Trace) {
            $crate::log::log($crate::log::Level::Trace, $target, format_args!($($arg)+));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn level_parsing_and_ordering() {
        assert_eq!(Level::parse("info"), Some(Level::Info));
        assert_eq!(Level::parse("WARNING"), Some(Level::Warn));
        assert_eq!(Level::parse("nope"), None);
        assert!(Level::Error < Level::Trace);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let _lock = crate::test_lock();
        let path = std::env::temp_dir().join(format!("swt_obs_log_{}.jsonl", std::process::id()));
        set_jsonl_path(&path).unwrap();
        set_max_level(Some(Level::Debug));
        crate::info!("obs::test", "hello {} with \"quotes\"", 42);
        crate::trace!("obs::test", "filtered out");
        if let Some(mut w) = JSONL.lock().unwrap().take() {
            w.flush().unwrap();
        }
        set_max_level(None);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "trace is above the debug level: {text}");
        let rec = Json::parse(lines[0]).unwrap();
        assert_eq!(rec.get("level").unwrap().as_str(), Some("info"));
        assert_eq!(rec.get("target").unwrap().as_str(), Some("obs::test"));
        assert_eq!(rec.get("msg").unwrap().as_str(), Some("hello 42 with \"quotes\""));
        assert!(rec.get("ts_ms").unwrap().as_u64().is_some());
    }

    #[test]
    fn disabled_levels_short_circuit() {
        let _lock = crate::test_lock();
        set_max_level(Some(Level::Error));
        assert!(log_enabled(Level::Error));
        assert!(!log_enabled(Level::Warn));
        set_max_level(None);
        assert!(!log_enabled(Level::Error));
        set_max_level(Some(Level::Info));
    }
}
