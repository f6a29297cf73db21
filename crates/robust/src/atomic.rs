//! Atomic file replacement: the one tmp+rename write every persisted
//! artefact, journal, cache entry and served file goes through.

use std::ffi::OsString;
use std::fs;
use std::path::{Path, PathBuf};

use crate::DarksilError;

/// Writes `bytes` to `path` atomically: creates the parent directory,
/// writes `<file>.tmp` beside it and renames that over `path`, so a kill
/// mid-write leaves either the old file or the new one, never a
/// truncated mix. A leftover `<file>.tmp` marks an interrupted write.
///
/// # Errors
///
/// Returns an `io`-class [`DarksilError`] naming the step that failed:
/// `cannot create <dir>`, `cannot write <file>.tmp` or
/// `cannot commit <file>`.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), DarksilError> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)
            .map_err(|e| DarksilError::io(format!("cannot create {}: {e}", parent.display())))?;
    }
    let mut tmp = OsString::from(path.as_os_str());
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, bytes)
        .map_err(|e| DarksilError::io(format!("cannot write {}: {e}", tmp.display())))?;
    fs::rename(&tmp, path)
        .map_err(|e| DarksilError::io(format!("cannot commit {}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ErrorClass;

    #[test]
    fn creates_the_parent_replaces_the_file_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("darksil-atomic-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("entry.json");
        write_atomic(&path, b"first").expect("fresh write");
        write_atomic(&path, b"second").expect("overwrite");
        assert_eq!(fs::read(&path).expect("readable"), b"second");
        assert!(!dir.join("nested").join("entry.json.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failures_are_io_errors_naming_the_step() {
        let dir = std::env::temp_dir().join(format!("darksil-atomic-err-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        // A directory where the target file should go: the tmp write
        // succeeds, the rename over a non-empty directory does not.
        let path = dir.join("taken");
        fs::create_dir_all(path.join("child")).expect("blocking dir");
        let err = write_atomic(&path, b"x").expect_err("cannot replace a directory");
        assert_eq!(err.class(), ErrorClass::Io);
        assert!(err.to_string().contains("cannot commit"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
