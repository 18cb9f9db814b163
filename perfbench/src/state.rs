//! Cross-run agreement: deterministic outputs (a campaign report, a
//! sweep frontier) must be identical in every run of the same binary on
//! the same inputs. The first run records a digest under `.bench_state/`
//! in the working directory; later runs compare against it. Digests are
//! keyed by the benchmark binary's identity, so a rebuilt program starts
//! a fresh record instead of being compared with another build's output.

use std::io;
use std::path::PathBuf;
use std::time::UNIX_EPOCH;

/// Scratch directory of the benchmark, relative to the working directory.
pub const DIR: &str = ".bench_state";

/// A key identifying this build of the benchmark binary.
fn exe_key() -> io::Result<u64> {
    let meta = std::fs::metadata(std::env::current_exe()?)?;
    let mtime = meta.modified()?.duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos());
    Ok(rv_isa::codec::fnv1a(format!("{}-{mtime}", meta.len()).as_bytes()))
}

/// Whether `digest` agrees with the digest recorded under `name` by an
/// earlier run of this build (recording it when there is none yet).
pub fn agrees(name: &str, digest: u64) -> io::Result<bool> {
    std::fs::create_dir_all(DIR)?;
    let path = PathBuf::from(DIR).join(format!("{name}-{:016x}.digest", exe_key()?));
    let text = format!("{digest:016x}\n");
    match std::fs::read_to_string(&path) {
        Ok(prev) => Ok(prev == text),
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let tmp = path.with_extension(format!("tmp{}", std::process::id()));
            std::fs::write(&tmp, &text)?;
            std::fs::rename(&tmp, &path)?;
            Ok(true)
        }
        Err(e) => Err(e),
    }
}
