//! Static lint passes over the workspace sources.
//!
//! Four rules. The first three serve the concurrency-correctness story
//! that the `calliope-check` model checker anchors; the fourth keeps the
//! wire format declared in one place:
//!
//! 1. **unsafe-allowlist** — `unsafe` code may appear only in the files
//!    named in [`UNSAFE_ALLOWLIST`], and every `unsafe` site (anywhere)
//!    must carry a `// SAFETY:` comment on the same line or in the
//!    comment block immediately above it.
//! 2. **relaxed-justified** — every `Ordering::Relaxed` site must be
//!    justified by a `// relaxed:` comment on the same line or within
//!    the [`RELAXED_WINDOW`] lines above it (one comment may cover a
//!    cluster of adjacent sites).
//! 3. **lock-across-io** — in `disk.rs` and `net.rs`, no mutex guard
//!    may be live across a blocking transfer (`read_blocks_into`,
//!    `read_blocks_abs`, or a socket `send_to`): holding the stream
//!    control lock through a disk read or packet send is exactly the
//!    kind of stall the duty-cycle scheduler exists to avoid.
//! 4. **wire-impl-macro** — a hand-written `impl Wire for` may appear
//!    only in the files named in [`WIRE_IMPL_ALLOWLIST`]; every other
//!    type declares its wire format with `impl_wire!`, which generates
//!    encoder and decoder from one field list so the two cannot drift.
//!
//! These are line-oriented heuristics, not a parser: they are cheap,
//! dependency-free, and tuned to this codebase's idioms. They scan
//! `crates/*/src/**/*.rs` only (integration tests under `tests/` are
//! free to be deliberately racy — that is what the model checker's
//! litmus suites are).

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Files allowed to contain `unsafe` code. The checker's shims must
/// touch raw memory to model it, the SPSC ring's `MaybeUninit`
/// slots are the one lock-free kernel in the data path, and the
/// flight recorder's `SIGUSR1` hook needs one libc `signal(2)` call;
/// everything else stays safe Rust.
const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/check/src/",
    "crates/msu/src/spsc.rs",
    "crates/obs/src/signal.rs",
];

/// How many lines above an `Ordering::Relaxed` site a `// relaxed:`
/// justification may sit (so one comment can cover a cluster).
const RELAXED_WINDOW: usize = 20;

/// Files allowed to hand-write `impl Wire for`: the leaf codecs
/// (integers, strings, collections, addresses) that `impl_wire!` builds
/// on, and the fixed-layout UDP data header.
const WIRE_IMPL_ALLOWLIST: &[&str] = &[
    "crates/types/src/wire/mod.rs",
    "crates/types/src/wire/data.rs",
];

/// Calls that must not run under a held lock guard in `disk.rs` /
/// `net.rs`.
const BLOCKING_CALLS: &[&str] = &["read_blocks_into(", "read_blocks_abs(", ".send_to("];

#[derive(Debug, PartialEq, Eq)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Entry point for `cargo xtask lint`.
pub fn run() -> ExitCode {
    let root = repo_root();
    let mut files = Vec::new();
    let crates = root.join("crates");
    let mut dirs = vec![crates];
    while let Some(dir) = dirs.pop() {
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => continue,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                // Only descend into crate roots and their src/ trees.
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                let in_src = path.components().any(|c| c.as_os_str() == "src");
                if in_src || name == "src" || path.parent() == Some(root.join("crates").as_path()) {
                    dirs.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs")
                && path.components().any(|c| c.as_os_str() == "src")
                // The linter's own sources hold rule names and seeded
                // test fixtures that would trip every rule.
                && !path.starts_with(root.join("crates/xtask"))
            {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut violations = Vec::new();
    for path in &files {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("xtask lint: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        violations.extend(lint_file(&rel, &src));
    }
    if violations.is_empty() {
        println!("xtask lint: {} files clean", files.len());
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!("xtask lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

fn repo_root() -> PathBuf {
    // crates/xtask -> crates -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels below the repo root")
        .to_path_buf()
}

/// Runs every rule that applies to `rel` (a repo-relative path using
/// `/` separators) over `src`.
pub fn lint_file(rel: &str, src: &str) -> Vec<Violation> {
    let lines: Vec<&str> = src.lines().collect();
    let mut out = lint_unsafe(rel, &lines);
    out.extend(lint_relaxed(rel, &lines));
    out.extend(lint_wire_impl(rel, &lines));
    if rel.ends_with("disk.rs") || rel.ends_with("net.rs") {
        out.extend(lint_lock_across_io(rel, &lines));
    }
    out.sort_by_key(|v| v.line);
    out
}

/// Splits a line into (code, comment) at the first `//`.
fn split_comment(line: &str) -> (&str, &str) {
    match line.find("//") {
        Some(i) => (&line[..i], &line[i..]),
        None => (line, ""),
    }
}

/// True when `code` contains `unsafe` as a standalone token (so
/// `unsafe_op_in_unsafe_fn` attributes do not match).
fn has_unsafe_token(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(i) = code[from..].find("unsafe") {
        let start = from + i;
        let end = start + "unsafe".len();
        let before_ok =
            start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        let after_ok =
            end == bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

/// True when some comment on the line itself, or in the contiguous
/// run of comment-only lines immediately above it, contains `needle`.
fn comment_above_or_inline(lines: &[&str], idx: usize, needle: &str) -> bool {
    if split_comment(lines[idx]).1.contains(needle) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let t = lines[i].trim_start();
        if t.starts_with("//") {
            if t.contains(needle) {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

/// Rule 1: `unsafe` only in allowlisted files, and always with a
/// `// SAFETY:` comment.
fn lint_unsafe(rel: &str, lines: &[&str]) -> Vec<Violation> {
    let allowed = UNSAFE_ALLOWLIST.iter().any(|p| rel.contains(p));
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let (code, _) = split_comment(line);
        if !has_unsafe_token(code) {
            continue;
        }
        if !allowed {
            out.push(Violation {
                file: rel.to_string(),
                line: idx + 1,
                rule: "unsafe-allowlist",
                msg: format!(
                    "unsafe code outside the allowlist ({}); keep unsafe confined \
                     or extend UNSAFE_ALLOWLIST in crates/xtask/src/lint.rs",
                    UNSAFE_ALLOWLIST.join(", ")
                ),
            });
        }
        if !comment_above_or_inline(lines, idx, "SAFETY:") {
            out.push(Violation {
                file: rel.to_string(),
                line: idx + 1,
                rule: "unsafe-safety-comment",
                msg: "unsafe site without a `// SAFETY:` comment on the same line or \
                      immediately above"
                    .to_string(),
            });
        }
    }
    out
}

/// Rule 2: every `Ordering::Relaxed` justified by a nearby
/// `// relaxed:` comment.
fn lint_relaxed(rel: &str, lines: &[&str]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let (code, comment) = split_comment(line);
        if !code.contains("Ordering::Relaxed") {
            continue;
        }
        let justified = comment.contains("relaxed:")
            || lines[idx.saturating_sub(RELAXED_WINDOW)..idx]
                .iter()
                .any(|l| split_comment(l).1.contains("relaxed:"));
        if !justified {
            out.push(Violation {
                file: rel.to_string(),
                line: idx + 1,
                rule: "relaxed-justified",
                msg: format!(
                    "Ordering::Relaxed without a `// relaxed:` justification on the \
                     same line or within the {RELAXED_WINDOW} lines above"
                ),
            });
        }
    }
    out
}

/// Rule 4: no hand-written `Wire` impl outside the allowlist.
fn lint_wire_impl(rel: &str, lines: &[&str]) -> Vec<Violation> {
    if WIRE_IMPL_ALLOWLIST.contains(&rel) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let code = split_comment(line).0.trim_start();
        if code.starts_with("impl") && code.contains("Wire for ") {
            out.push(Violation {
                file: rel.to_string(),
                line: idx + 1,
                rule: "wire-impl-macro",
                msg: "hand-written `impl Wire`; declare the wire format with \
                      `calliope_types::impl_wire!` and add the type to its golden table"
                    .to_string(),
            });
        }
    }
    out
}

/// Rule 3: no lock guard live across a blocking disk read or socket
/// send. Tracks `let <name> = ….lock()` bindings by brace depth;
/// method-chained temporaries (`x.lock().field = …`) release at the
/// end of the statement and are not tracked.
fn lint_lock_across_io(rel: &str, lines: &[&str]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut guards: Vec<(String, usize, usize)> = Vec::new(); // (name, depth, line)
    let mut depth = 0usize;
    for (idx, line) in lines.iter().enumerate() {
        let (code, _) = split_comment(line);
        let trimmed = code.trim_start();
        // A guard *binding*: `let [mut] name = ….lock()…;` — but not a
        // chained temporary like `….lock().field` which dies at the
        // end of its own statement.
        if let Some(rest) = trimmed.strip_prefix("let ") {
            if code.contains(".lock()") && !code.contains(".lock().") {
                let rest = rest.trim_start_matches("mut ").trim_start();
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() && name != "_" {
                    guards.push((name, depth, idx + 1));
                }
            }
        }
        if code.contains("drop(") {
            guards.retain(|(name, _, _)| !code.contains(&format!("drop({name})")));
        }
        for call in BLOCKING_CALLS {
            if code.contains(call) {
                for (name, _, gline) in &guards {
                    out.push(Violation {
                        file: rel.to_string(),
                        line: idx + 1,
                        rule: "lock-across-io",
                        msg: format!(
                            "blocking call `{}` while guard `{name}` (taken at line \
                             {gline}) is live; drop the guard before transferring",
                            call.trim_start_matches('.').trim_end_matches('(')
                        ),
                    });
                }
            }
        }
        for ch in code.chars() {
            match ch {
                '{' => depth += 1,
                '}' => {
                    depth = depth.saturating_sub(1);
                    guards.retain(|(_, d, _)| *d <= depth);
                }
                _ => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn unsafe_outside_allowlist_is_flagged() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller promises p is valid.\n    unsafe { *p }\n}\n";
        let v = lint_file("crates/storage/src/page.rs", src);
        assert_eq!(rules(&v), ["unsafe-allowlist"], "{v:?}");
    }

    #[test]
    fn unsafe_in_allowlist_with_safety_comment_passes() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller promises p is valid.\n    unsafe { *p }\n}\n";
        assert!(lint_file("crates/msu/src/spsc.rs", src).is_empty());
        assert!(lint_file("crates/check/src/cell.rs", src).is_empty());
    }

    #[test]
    fn unsafe_without_safety_comment_is_flagged_even_in_allowlist() {
        let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let v = lint_file("crates/msu/src/spsc.rs", src);
        assert_eq!(rules(&v), ["unsafe-safety-comment"], "{v:?}");
    }

    #[test]
    fn unsafe_attribute_names_do_not_match() {
        let src = "#![deny(unsafe_op_in_unsafe_fn)]\n";
        assert!(lint_file("crates/storage/src/lib.rs", src).is_empty());
    }

    #[test]
    fn inline_safety_comment_counts() {
        let src =
            "fn f(p: *const u8) -> u8 {\n    unsafe { *p } // SAFETY: p valid by contract\n}\n";
        assert!(lint_file("crates/check/src/cell.rs", src).is_empty());
    }

    #[test]
    fn relaxed_without_justification_is_flagged() {
        let src = "fn f(x: &AtomicU64) -> u64 {\n    x.load(Ordering::Relaxed)\n}\n";
        let v = lint_file("crates/msu/src/pool.rs", src);
        assert_eq!(rules(&v), ["relaxed-justified"], "{v:?}");
    }

    #[test]
    fn relaxed_with_nearby_comment_passes() {
        let src = "fn f(x: &AtomicU64) -> u64 {\n    // relaxed: monotone counter, staleness fine.\n    x.load(Ordering::Relaxed)\n}\n";
        assert!(lint_file("crates/msu/src/pool.rs", src).is_empty());
        let inline =
            "fn f(x: &AtomicU64) -> u64 {\n    x.load(Ordering::Relaxed) // relaxed: counter\n}\n";
        assert!(lint_file("crates/msu/src/pool.rs", inline).is_empty());
    }

    #[test]
    fn one_relaxed_comment_covers_a_cluster() {
        let src = "fn f(x: &AtomicU64) {\n    // relaxed: independent counters.\n    x.fetch_add(1, Ordering::Relaxed);\n    x.fetch_add(2, Ordering::Relaxed);\n    x.fetch_add(3, Ordering::Relaxed);\n}\n";
        assert!(lint_file("crates/msu/src/pool.rs", src).is_empty());
    }

    #[test]
    fn relaxed_mention_in_comment_only_is_ignored() {
        let src = "// Ordering::Relaxed is discussed here but not used.\n";
        assert!(lint_file("crates/msu/src/pool.rs", src).is_empty());
    }

    #[test]
    fn lock_across_disk_read_is_flagged() {
        let src = "fn f() {\n    let mut ctl = shared.ctl.lock();\n    fs.read_blocks_abs(0, &mut refs).unwrap();\n}\n";
        let v = lint_file("crates/msu/src/disk.rs", src);
        assert_eq!(rules(&v), ["lock-across-io"], "{v:?}");
        assert!(v[0].msg.contains("ctl"), "{v:?}");
    }

    #[test]
    fn lock_across_send_is_flagged_in_net_only() {
        let src =
            "fn f() {\n    let g = state.lock();\n    socket.send_to(buf, dest).unwrap();\n}\n";
        assert_eq!(
            rules(&lint_file("crates/msu/src/net.rs", src)),
            ["lock-across-io"]
        );
        // The rule is scoped to the transfer loops in disk.rs/net.rs.
        assert!(lint_file("crates/coord/src/rpc.rs", src).is_empty());
    }

    #[test]
    fn dropped_or_scoped_guard_is_fine() {
        let dropped = "fn f() {\n    let g = state.lock();\n    drop(g);\n    socket.send_to(buf, dest).unwrap();\n}\n";
        assert!(lint_file("crates/msu/src/net.rs", dropped).is_empty());
        let scoped = "fn f() {\n    let v = {\n        let ctl = shared.ctl.lock();\n        ctl.v\n    };\n    socket.send_to(buf, dest).unwrap();\n}\n";
        assert!(lint_file("crates/msu/src/net.rs", scoped).is_empty());
    }

    #[test]
    fn hand_written_wire_impl_is_flagged() {
        let src = "impl Wire for FileKind {\n    fn encode(&self, buf: &mut Vec<u8>) {}\n}\nimpl calliope_types::wire::Wire for RootEntry {}\n";
        let v = lint_file("crates/storage/src/catalog.rs", src);
        assert_eq!(rules(&v), ["wire-impl-macro", "wire-impl-macro"], "{v:?}");
        assert_eq!((v[0].line, v[1].line), (1, 4));
    }

    #[test]
    fn wire_impls_pass_in_allowlist_and_via_the_macro() {
        let leaf = "impl Wire for u8 {}\nimpl<T: Wire> Wire for Vec<T> {}\n";
        assert!(lint_file("crates/types/src/wire/mod.rs", leaf).is_empty());
        assert!(lint_file("crates/types/src/wire/data.rs", leaf).is_empty());
        let declared =
            "// Not `impl Wire for` by hand:\nimpl_wire! {\n    struct RootEntry { first_key, page }\n}\n";
        assert!(lint_file("crates/storage/src/catalog.rs", declared).is_empty());
    }

    #[test]
    fn chained_lock_temporary_is_not_a_guard() {
        let src = "fn f() {\n    shared.ctl.lock().eof = true;\n    socket.send_to(buf, dest).unwrap();\n}\n";
        assert!(lint_file("crates/msu/src/net.rs", src).is_empty());
    }
}
