//! Scratch directories for the unit tests that remove themselves.

use std::path::{Path, PathBuf};

/// A fresh, empty directory under the system temp dir, unique to this
/// process and test name. Dropping it removes the directory and everything
/// in it, so a test leaves nothing behind, passed or failed.
pub(crate) struct TestDir(PathBuf);

impl TestDir {
    pub(crate) fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("gputx-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the test directory");
        TestDir(dir)
    }

    pub(crate) fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
