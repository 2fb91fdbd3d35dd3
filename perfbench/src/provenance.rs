//! Where a result came from: revision, sources, host and toolchain.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The repository root: the parent of this package.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Output of a short command, or `unknown`.
fn command_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The git revision of the root, or `unknown` outside a git checkout
/// (git is kept from searching the root's parents).
fn git_revision(root: &Path) -> String {
    let mut cmd = Command::new("git");
    cmd.arg("-C").arg(root).args(["rev-parse", "HEAD"]);
    if let Some(parent) = root.parent() {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    command_line(&mut cmd)
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !name.starts_with('.') && name != "target" && name != "out" {
                collect_sources(&path, out);
            }
        } else if name.ends_with(".rs") || name == "Cargo.toml" || name == "Cargo.lock" {
            out.push(path);
        }
    }
}

/// FNV-1a over the paths and contents of every Rust source and manifest
/// under `crates/` and the benchmark, plus the root manifest and lock
/// file: identifies the code measured when no git revision is at hand.
fn source_digest(root: &Path) -> String {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_sources(&root.join("crates"), &mut files);
    collect_sources(Path::new(env!("CARGO_MANIFEST_DIR")), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in &files {
        let rel = file.strip_prefix(root).unwrap_or(file);
        eat(rel.to_string_lossy().as_bytes());
        eat(&std::fs::read(file).unwrap_or_default());
    }
    format!("{h:016x}")
}

/// Provenance of one run as a JSON object.
pub fn json(
    workload: &str,
    seed: u64,
    trace: bool,
    seconds: f64,
    used: f64,
    params: &str,
) -> String {
    let root = repo_root();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"git_revision\":\"{}\",\"source_digest\":\"{}\",\"nproc\":{nproc},\"rustc\":\"{}\",\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{trace},\"seconds_requested\":{seconds},\"seconds_used\":{used:.3},\"params\":{params}}}",
        git_revision(&root),
        source_digest(&root),
        command_line(Command::new("rustc").arg("--version")),
    )
}
