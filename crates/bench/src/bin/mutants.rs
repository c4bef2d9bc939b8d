//! `mutants` — score the tier-1 tests against a catalogue of rule
//! breaks.
//!
//! ```text
//! mutants [id ...]
//! ```
//!
//! Each entry of the catalogue (`crates/bench/mutants.txt`, its format
//! is described at its top) replaces one piece of text in one source
//! file with a version that breaks a rule of the paper's NoC. The
//! runner copies the workspace (without `target/` and `.git/`) into a
//! fresh directory under the system temp dir, builds the tier-1 test
//! binaries there (`cargo test --no-run`, the dev profile with debug
//! assertions), checks that they all pass unmutated,
//! then applies each mutant alone, rebuilds and runs every test binary
//! except the suites that compare against constants pinned at an
//! earlier commit or pin each run's exact outcome. A pinned constant
//! catches any change at all, so it cannot tell a broken rule from an
//! intended fix; the score counts only the checks that state a rule. Doc tests and the test binaries
//! of proc-macro crates (which need the toolchain's `libstd` on the
//! loader path) are not run.
//!
//! A mutant is **killed** when some test fails (or one binary runs past
//! 600 s), **survived** when every test passes, and **unbuildable** when
//! the mutated tree does not compile; the score is killed over
//! buildable. With ids, only those mutants run. Run it from the
//! workspace root; one line per mutant goes to stdout:
//!
//! ```text
//! cargo run --release -p noc-experiments --bin mutants
//! ```

#![forbid(unsafe_code)]

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// The catalogue, from the workspace root.
const CATALOGUE: &str = "crates/bench/mutants.txt";

/// A test binary still running after this long kills its mutant.
const TIMEOUT: Duration = Duration::from_secs(600);

/// Test binaries that compare against constants pinned at an earlier
/// commit, count allocations against a pinned census, or pin every
/// run's exact outcome (`overload_drains`: drain cycles per seed).
const PINNED_BINARIES: &[&str] = &[
    "engine_goldens",
    "overload_drains",
    "txn_lockstep",
    "protocol_goldens",
    "telemetry_goldens",
    "repro_goldens",
    "waitgraph_identity",
    "span_identity",
    "paper_soc_identity",
    "alloc_census",
];

/// This runner's own tests: they check that every mutant applies to
/// the unmutated tree, so any applied mutant fails them.
const SELF: &str = "mutants";

/// Pinned test functions inside otherwise unpinned binaries.
const PINNED_TESTS: &[&str] = &["committed_spec_is_what_the_default_config_emits"];

/// One catalogue entry.
#[derive(Debug, Clone, PartialEq)]
struct Mutant {
    id: String,
    rule: String,
    file: String,
    old: String,
    new: String,
    note: Option<String>,
}

/// Parse the catalogue format: `key: value` lines, entries separated
/// by blank lines, `#` comment lines, `\n` in `old`/`new` a newline.
fn parse(text: &str) -> Result<Vec<Mutant>, String> {
    let mut out = Vec::new();
    let mut fields: Vec<(String, String)> = Vec::new();
    let lines = text.lines().chain(std::iter::once(""));
    for (n, line) in lines.enumerate() {
        if line.starts_with('#') {
            continue;
        }
        if line.trim().is_empty() {
            if !fields.is_empty() {
                out.push(entry(std::mem::take(&mut fields))?);
            }
            continue;
        }
        let (key, value) = line
            .split_once(':')
            .ok_or_else(|| format!("line {}: expected `key: value`", n + 1))?;
        let value = value.strip_prefix(' ').unwrap_or(value);
        fields.push((key.to_string(), value.replace("\\n", "\n")));
    }
    let mut ids: Vec<&str> = out.iter().map(|m: &Mutant| m.id.as_str()).collect();
    ids.sort_unstable();
    if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("duplicate id {}", w[0]));
    }
    Ok(out)
}

fn entry(fields: Vec<(String, String)>) -> Result<Mutant, String> {
    let get = |k: &str| {
        fields
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.clone())
    };
    let need = |k: &str| get(k).ok_or_else(|| format!("entry {:?} lacks `{k}`", get("id")));
    if let Some((k, _)) = fields
        .iter()
        .find(|(k, _)| !["id", "rule", "file", "old", "new", "note"].contains(&k.as_str()))
    {
        return Err(format!("entry {:?}: unknown key `{k}`", get("id")));
    }
    let m = Mutant {
        id: need("id")?,
        rule: need("rule")?,
        file: need("file")?,
        old: need("old")?,
        new: need("new")?,
        note: get("note"),
    };
    if m.old.is_empty() || m.old == m.new {
        return Err(format!("entry {}: empty or unchanged text", m.id));
    }
    Ok(m)
}

/// `source` with the mutant applied, or why it does not apply.
fn apply(m: &Mutant, source: &str) -> Result<String, String> {
    match source.matches(m.old.as_str()).count() {
        1 => Ok(source.replacen(m.old.as_str(), &m.new, 1)),
        n => Err(format!(
            "{}: old text occurs {n} times in {}, not once",
            m.id, m.file
        )),
    }
}

/// Copy `from` into `to`, skipping build output and version control.
fn copy_tree(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for e in fs::read_dir(from)? {
        let e = e?;
        let name = e.file_name();
        if name == "target" || name == ".git" {
            continue;
        }
        let (src, dst) = (e.path(), to.join(&name));
        if e.file_type()?.is_dir() {
            copy_tree(&src, &dst)?;
        } else {
            fs::copy(&src, &dst)?;
        }
    }
    Ok(())
}

/// A built test binary: its target name, path and package directory.
struct TestBinary {
    name: String,
    exe: PathBuf,
    dir: PathBuf,
}

/// The string value of `"key":"…"` in one line of cargo's JSON output.
fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

/// Build every tier-1 test binary in `work`; `None` if the build fails.
fn build(work: &Path) -> Option<Vec<TestBinary>> {
    let out = Command::new("cargo")
        .args(["test", "--workspace", "--no-run", "--message-format=json"])
        .current_dir(work)
        .stderr(Stdio::null())
        .output()
        .expect("cargo runs");
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut bins: Vec<TestBinary> = text
        .lines()
        .filter(|l| l.contains("\"reason\":\"compiler-artifact\""))
        .filter_map(|l| {
            let profile = &l[l.find("\"profile\":{")?..];
            if !profile[..profile.find('}')?].contains("\"test\":true") {
                return None;
            }
            let target = &l[l.find("\"target\":")?..];
            if target.contains("\"kind\":[\"proc-macro\"]") {
                return None;
            }
            Some(TestBinary {
                name: json_str(target, "name")?.to_string(),
                exe: PathBuf::from(json_str(l, "executable")?),
                dir: Path::new(json_str(l, "manifest_path")?)
                    .parent()?
                    .to_path_buf(),
            })
        })
        .collect();
    bins.sort_by(|a, b| a.exe.cmp(&b.exe));
    bins.dedup_by(|a, b| a.exe == b.exe);
    Some(bins)
}

/// Run every unpinned binary; the first failure stops the run.
fn run_tests(bins: &[TestBinary], log: &Path) -> Option<String> {
    for b in bins
        .iter()
        .filter(|b| b.name != SELF && !PINNED_BINARIES.contains(&b.name.as_str()))
    {
        let mut cmd = Command::new(&b.exe);
        cmd.current_dir(&b.dir);
        for t in PINNED_TESTS {
            cmd.args(["--skip", t]);
        }
        let file = fs::File::create(log).expect("log file");
        let err = file.try_clone().expect("log file");
        let mut child = cmd
            .stdout(file)
            .stderr(err)
            .spawn()
            .expect("test binary runs");
        let start = Instant::now();
        let status = loop {
            if let Some(s) = child.try_wait().expect("wait") {
                break Some(s);
            }
            if start.elapsed() > TIMEOUT {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            thread::sleep(Duration::from_millis(100));
        };
        match status {
            Some(s) if s.success() => {}
            Some(_) => {
                let text = fs::read_to_string(log).unwrap_or_default();
                let first = text
                    .lines()
                    .find_map(|l| l.strip_prefix("test ")?.strip_suffix(" ... FAILED"))
                    .unwrap_or("(no test named)");
                return Some(format!("{}::{first}", b.name));
            }
            None => return Some(format!("{} (timed out)", b.name)),
        }
    }
    None
}

fn main() -> ExitCode {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let root = std::env::current_dir().expect("cwd");
    let text = match fs::read_to_string(root.join(CATALOGUE)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {CATALOGUE}: {e} (run from the workspace root)");
            return ExitCode::from(2);
        }
    };
    let mutants: Vec<Mutant> = match parse(&text) {
        Ok(all) => all
            .into_iter()
            .filter(|m| ids.is_empty() || ids.contains(&m.id))
            .collect(),
        Err(e) => {
            eprintln!("{CATALOGUE}: {e}");
            return ExitCode::from(2);
        }
    };
    for m in &mutants {
        let source = fs::read_to_string(root.join(&m.file)).unwrap_or_default();
        if let Err(e) = apply(m, &source) {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    }

    let work = std::env::temp_dir().join(format!("noc-mutants-{}", std::process::id()));
    copy_tree(&root, &work).expect("copy the workspace");
    let log = work.join("mutant-test.log");
    eprintln!("baseline: the unmutated tests in {}", work.display());
    let Some(bins) = build(&work) else {
        eprintln!("the unmutated workspace does not build");
        return ExitCode::from(2);
    };
    if let Some(fail) = run_tests(&bins, &log) {
        eprintln!("the unmutated workspace fails {fail}; a red baseline would kill every mutant");
        return ExitCode::from(2);
    }

    let (mut killed, mut buildable) = (0, 0);
    for m in &mutants {
        let path = work.join(&m.file);
        let source = fs::read_to_string(&path).expect("source");
        fs::write(&path, apply(m, &source).expect("checked")).expect("write mutant");
        let start = Instant::now();
        let verdict = match build(&work) {
            None => "unbuildable\t".to_string(),
            Some(bins) => {
                buildable += 1;
                match run_tests(&bins, &log) {
                    Some(by) => {
                        killed += 1;
                        format!("killed\t{by}")
                    }
                    None => format!("survived\t{}", m.note.as_deref().unwrap_or("")),
                }
            }
        };
        fs::write(&path, source).expect("restore source");
        let secs = start.elapsed().as_secs();
        println!("{}\t{verdict}\t{secs}s\t{}", m.id, m.rule);
    }
    println!(
        "score: {killed}/{buildable} killed ({} mutants)",
        mutants.len()
    );
    let _ = fs::remove_dir_all(&work);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_catalogue_parses_and_every_mutant_applies_once() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let text = fs::read_to_string(root.join(CATALOGUE)).expect("catalogue");
        let mutants = parse(&text).expect("catalogue parses");
        assert!(mutants.len() >= 15, "{} mutants", mutants.len());
        for m in &mutants {
            let source = fs::read_to_string(root.join(&m.file)).expect("mutated file exists");
            apply(m, &source).expect("applies");
        }
    }

    #[test]
    fn entries_split_on_blank_lines_and_unescape_newlines() {
        let text = "# c\nid: a\nrule: r\nfile: f\nold: x\\ny\nnew:\n\nid: b\nrule: r\nfile: f\nold: p\nnew: q\nnote: n\n";
        let m = parse(text).expect("parses");
        assert_eq!(m.len(), 2);
        assert_eq!((m[0].old.as_str(), m[0].new.as_str()), ("x\ny", ""));
        assert_eq!(m[1].note.as_deref(), Some("n"));
        assert_eq!(apply(&m[0], "0x\ny1").as_deref(), Ok("01"));
        assert!(apply(&m[0], "x\nyx\ny").is_err());
        let twice = "id: a\nrule: r\nfile: f\nold: o\nnew: n\n\n".repeat(2);
        assert_eq!(parse(&twice), Err("duplicate id a".to_string()));
    }
}
