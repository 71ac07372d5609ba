//! The three JSON codecs as they were before `dda_obs::event` became the
//! only one: reference implementations that exist only for the
//! differential tests in `codec_oracle.rs` and `obs_events.rs`.

#![allow(dead_code)]

pub mod core_json;
pub mod journal;
pub mod obs_event;

/// Strings that exercise every escape class: quotes, backslashes,
/// named control escapes, `\uXXXX` control escapes, and multi-byte
/// unicode that must pass through untouched.
pub const HOSTILE: [&str; 8] = [
    "",
    "plain module_name",
    "quote \" backslash \\ both \\\"",
    "newline\n tab\t return\r",
    "nul\u{0} bell\u{7} esc\u{1b} unit\u{1f}",
    "already-escaped-looking \\n \\u0041",
    "unicode: λ → 模块 🚀",
    "path\\to\\\"file\".v",
];

/// Generator covering every escape class: raw control characters
/// (`U+0000`–`U+001F`), quotes, backslashes, plain ASCII, and multi-byte
/// unicode.
pub const FIELD_CHARS: &str = "[\u{0}-\u{1f}a-z \"\\\\λ模🚀]{0,60}";
