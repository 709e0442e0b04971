//! The host record printed beside every result: what a number was
//! measured on, so that a result from another host is never taken as a
//! baseline.

use std::path::Path;

use dynapar_engine::fnv1a_64;
use dynapar_gpu::Json;

/// This package's manifest; its `[profile.release]` table is the build
/// profile of the measured binary.
const OWN_MANIFEST: &str = include_str!("../Cargo.toml");

/// Where and how a result was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// The benchmark's `[profile.release]` settings, one line.
    pub profile: String,
    /// Whether the repository root's `[profile.release]` has the same
    /// settings (the benchmark cannot inherit them; see Cargo.toml).
    pub profile_matches_root: bool,
    /// `git rev-parse HEAD`, or `none` outside a git checkout.
    pub commit: String,
    /// FNV-1a over the paths and bytes of the program's sources, so a
    /// result names the code it measured even without git.
    pub source_digest: String,
}

impl Host {
    /// Probes the host; `root` is the repository checkout.
    pub fn probe(root: &Path) -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let root_manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap_or_default();
        let profile = release_profile(OWN_MANIFEST);
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu,
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            profile_matches_root: release_profile(&root_manifest) == profile,
            profile,
            commit: git_head(root).unwrap_or_else(|| "none".to_string()),
            source_digest: format!("{:016x}", source_digest(root)),
        }
    }

    /// The fields two results must share to be compared.
    pub fn comparable_with(&self, other: &Host) -> Result<(), String> {
        let fields = [
            ("nproc", self.nproc.to_string(), other.nproc.to_string()),
            ("cpu", self.cpu.clone(), other.cpu.clone()),
            ("rustc", self.rustc.clone(), other.rustc.clone()),
            ("profile", self.profile.clone(), other.profile.clone()),
        ];
        for (name, a, b) in fields {
            if a != b {
                return Err(format!("host {name} differs: {a:?} vs {b:?}"));
            }
        }
        Ok(())
    }

    /// The record as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::U64(self.nproc as u64)),
            ("cpu", Json::str(&self.cpu)),
            ("rustc", Json::str(&self.rustc)),
            ("profile", Json::str(&self.profile)),
            (
                "profile_matches_root",
                Json::Bool(self.profile_matches_root),
            ),
            ("commit", Json::str(&self.commit)),
            ("source_digest", Json::str(&self.source_digest)),
        ])
    }

    /// Reads a record written by [`to_json`](Host::to_json).
    pub fn from_json(doc: &Json) -> Option<Host> {
        let s = |k: &str| doc.get(k).and_then(Json::as_str).map(str::to_string);
        Some(Host {
            nproc: doc.get("nproc")?.as_u64()? as usize,
            cpu: s("cpu")?,
            rustc: s("rustc")?,
            profile: s("profile")?,
            profile_matches_root: doc.get("profile_matches_root")?.as_bool()?,
            commit: s("commit")?,
            source_digest: s("source_digest")?,
        })
    }
}

/// The `key=value` lines of a manifest's `[profile.release]` table,
/// spaces and comments dropped, sorted and joined by spaces.
pub fn release_profile(manifest: &str) -> String {
    let mut inside = false;
    let mut settings = Vec::new();
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            inside = line == "[profile.release]";
        } else if inside && !line.is_empty() {
            settings.push(line.replace(' ', ""));
        }
    }
    settings.sort();
    settings.join(" ")
}

fn git_head(root: &Path) -> Option<String> {
    if !root.join(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()?;
    let head = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !head.is_empty()).then_some(head)
}

/// Digest of `Cargo.toml`, `Cargo.lock`, `src/` and `crates/` under
/// `root` (files in sorted path order; build directories skipped).
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates"] {
        collect_files(&root.join(top), &mut files);
    }
    files.sort();
    let mut acc = Vec::new();
    for path in files {
        if let Ok(bytes) = std::fs::read(&path) {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            acc.extend_from_slice(rel.to_string_lossy().as_bytes());
            acc.push(0);
            acc.extend_from_slice(&fnv1a_64(&bytes).to_le_bytes());
        }
    }
    fnv1a_64(&acc)
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            let p = entry.path();
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_files(&p, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_reads_only_its_table() {
        let manifest = "[package]\nname = \"x\"\n[profile.release]\n# why\nlto = \"fat\" # note\ncodegen-units = 1\n\n[profile.bench]\ndebug = true\n";
        assert_eq!(release_profile(manifest), "codegen-units=1 lto=\"fat\"");
        assert_eq!(release_profile("[package]\n"), "");
    }

    #[test]
    fn own_profile_mirrors_the_repository_root() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let root_manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
        assert_eq!(
            release_profile(OWN_MANIFEST),
            release_profile(&root_manifest)
        );
    }

    #[test]
    fn hosts_compare_on_machine_fields_only() {
        let a = Host {
            nproc: 2,
            cpu: "cpu".into(),
            rustc: "rustc 1".into(),
            profile: "lto=\"fat\"".into(),
            profile_matches_root: true,
            commit: "a".into(),
            source_digest: "1".into(),
        };
        let mut b = a.clone();
        b.commit = "b".into();
        b.source_digest = "2".into();
        assert!(a.comparable_with(&b).is_ok());
        b.nproc = 4;
        assert!(a.comparable_with(&b).unwrap_err().contains("nproc"));
        assert_eq!(Host::from_json(&a.to_json()), Some(a));
    }
}
