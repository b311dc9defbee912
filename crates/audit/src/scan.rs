//! Workspace walking and the two-pass analysis pipeline.
//!
//! Pass 1 parses every in-scope file into its item structure and builds
//! the workspace-wide call graph; pass 2 runs the token lints with the
//! per-line taint verdicts the graph produced. There are no per-crate
//! special cases left: a crate's code is hot iff the call graph proves
//! it reachable from a registered hot root, and determinism-critical iff
//! it can reach (or is reached from code that reaches) a schedule-feeding
//! kernel API.

use crate::callgraph;
use crate::items::{parse_file, ParsedFile};
use crate::lints::{scan_file, FileTaint, Finding, Scope};
use crate::source::SourceFile;
use std::path::{Path, PathBuf};

/// Lint scope for a file at `rel` (repo-relative, `/`-separated), or
/// `None` if the file is out of scope.
///
/// * `crates/<k>/src/**` — full scope. The only named crate is the
///   auditor itself, which is skipped: its sources are lint-pattern
///   fragments and fixtures (its correctness is covered by its tests).
/// * root `src/`, `examples/`, `tests/` — scaffolding scope: the det
///   lints apply wherever the call graph finds schedule-feeding code,
///   but nothing here is kernel-dispatched per frame, so the `hotpath-*`
///   and `perf-*` families stay off.
pub fn scope_for(rel: &str) -> Option<Scope> {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => {
            let krate = parts.next()?;
            if krate == "audit" {
                return None;
            }
            if parts.next() != Some("src") {
                return None;
            }
            Some(Scope {
                hotpath: true,
                obs: krate == "obs",
                perf: true,
                schema: true,
            })
        }
        Some("src") | Some("examples") | Some("tests") => Some(Scope {
            hotpath: false,
            obs: false,
            perf: false,
            schema: true,
        }),
        _ => None,
    }
}

/// Every `.rs` file under `crates/*/src` plus the root `src/`,
/// `examples/`, and `tests/` trees, sorted for stable output.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<(PathBuf, String)>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, root, &mut out)?;
        }
    }
    for top in ["src", "examples", "tests"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, root, &mut out)?;
        }
    }
    out.sort_by(|a, b| a.1.cmp(&b.1));
    Ok(out)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<(PathBuf, String)>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((path, rel));
        }
    }
    Ok(())
}

/// Turn per-function taints into a per-line [`FileTaint`]. Functions are
/// visited in ascending signature-line order, so on shared lines an
/// inner (nested) function's verdict overwrites its enclosing one.
fn file_taint(sf: &SourceFile, parsed: &ParsedFile, taints: &[callgraph::FnTaint]) -> FileTaint {
    let n = sf.lines.len();
    let mut t = FileTaint::cold(n);
    let mut order: Vec<usize> = (0..parsed.fns.len()).collect();
    order.sort_by_key(|&i| parsed.fns[i].lines.map(|(a, _)| a).unwrap_or(usize::MAX));
    for i in order {
        let Some((a, b)) = parsed.fns[i].lines else {
            continue;
        };
        let ft = &taints[i];
        for line in a..=b.min(n) {
            t.hot[line - 1] = ft.hot.clone();
            t.det[line - 1] = ft.det.clone();
            t.in_fn[line - 1] = true;
        }
    }
    t.file_det = taints.iter().any(|ft| ft.det.is_some());
    t
}

/// Run the full two-pass analysis over already-loaded sources and return
/// the findings, unsorted. The call graph spans *all* the given files,
/// so cross-file reachability works exactly as it does in
/// [`scan_workspace`].
pub fn scan_sources(inputs: &[(SourceFile, Scope)]) -> Vec<Finding> {
    let parsed: Vec<ParsedFile> = inputs.iter().map(|(sf, _)| parse_file(sf)).collect();
    let refs: Vec<(&ParsedFile, bool)> = parsed
        .iter()
        .zip(inputs.iter())
        .map(|(pf, (_, scope))| (pf, scope.hotpath))
        .collect();
    let taints = callgraph::analyze(&refs);

    let mut findings = Vec::new();
    for (i, (sf, scope)) in inputs.iter().enumerate() {
        let taint = file_taint(sf, &parsed[i], &taints[i]);
        findings.extend(scan_file(sf, *scope, &taint));
    }
    findings
}

/// Scan the whole workspace under `root`, sorted into report order.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut inputs = Vec::new();
    for (path, rel) in workspace_files(root)? {
        let Some(scope) = scope_for(&rel) else {
            continue;
        };
        inputs.push((SourceFile::load(&path, &rel)?, scope));
    }
    let mut findings = scan_sources(&inputs);
    crate::report::sort(&mut findings);
    Ok(findings)
}

/// The repository root: `--root` override, else the workspace that built
/// this binary (two levels up from the audit crate's manifest).
pub fn default_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_rules() {
        let sim = scope_for("crates/sim/src/kernel.rs").unwrap();
        assert!(sim.hotpath && sim.perf && sim.schema && !sim.obs);
        let obs = scope_for("crates/obs/src/lib.rs").unwrap();
        assert!(obs.obs && obs.hotpath, "obs has no whole-crate exemption");
        let lab = scope_for("crates/lab/src/json.rs").unwrap();
        assert!(lab.hotpath, "lab has no whole-crate exemption");
        assert!(
            scope_for("crates/audit/src/lints.rs").is_none(),
            "auditor skips itself"
        );
        assert!(
            scope_for("crates/sim/tests/props.rs").is_none(),
            "crate test dirs out of scope"
        );
        let ex = scope_for("examples/quickstart.rs").unwrap();
        assert!(!ex.hotpath && !ex.perf && !ex.obs && ex.schema);
        let t = scope_for("tests/fanout_properties.rs").unwrap();
        assert!(!t.hotpath && t.schema);
    }

    #[test]
    fn workspace_walk_finds_kernel_and_root_trees() {
        let files = workspace_files(&default_root()).unwrap();
        assert!(files
            .iter()
            .any(|(_, rel)| rel == "crates/sim/src/kernel.rs"));
        assert!(
            files.iter().any(|(_, rel)| rel.starts_with("examples/")),
            "root examples are walked"
        );
        assert!(
            files.iter().any(|(_, rel)| rel.starts_with("tests/")),
            "root tests are walked"
        );
        assert!(
            files.windows(2).all(|w| w[0].1 < w[1].1),
            "sorted, no dupes"
        );
    }

    #[test]
    fn pipeline_taints_through_the_call_graph() {
        let src = "impl Node for S {\n    fn on_frame(&mut self) { self.go(); }\n}\n\
                   impl S {\n    fn go(&self) { q.unwrap(); }\n}\n";
        let scope = scope_for("crates/x/src/lib.rs").unwrap();
        let f = scan_sources(&[(SourceFile::parse("crates/x/src/lib.rs", src), scope)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, "hotpath-unwrap");
        let note = f[0].note.as_deref().unwrap();
        assert!(note.contains("on_frame"), "chain cited: {note}");
    }

    #[test]
    fn scaffolding_scope_suppresses_hot_lints() {
        let src = "impl Node for S {\n    fn on_frame(&mut self) { q.unwrap(); }\n}\n";
        let scope = scope_for("tests/t.rs").unwrap();
        let f = scan_sources(&[(SourceFile::parse("tests/t.rs", src), scope)]);
        assert!(f.is_empty(), "{f:?}");
    }
}
