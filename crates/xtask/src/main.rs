//! Repo automation tasks, invoked as `cargo xtask <task>`.
//!
//! The only task today is `lint`: the static passes that back the
//! concurrency-correctness story and keep the wire format declared in
//! one place (see `lint.rs`). Exits nonzero when any violation is found,
//! so CI can gate on it.

use std::process::ExitCode;

mod lint;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint::run(),
        other => {
            eprintln!(
                "usage: cargo xtask lint\n  (got: {:?})",
                other.unwrap_or("<none>")
            );
            ExitCode::from(2)
        }
    }
}
