//! Integration test support crate; tests live in `../tests`.

use std::path::PathBuf;

/// The `ppa-spill-<pid>-*` job directories of *this* process still present
/// under the system temp directory. A finished, failed or cancelled spilling
/// job must leave none; a test that asserts so must be the only spilling
/// test of its binary, or the scan races its siblings' live directories.
pub fn our_spill_dirs() -> Vec<PathBuf> {
    let prefix = format!("ppa-spill-{}-", std::process::id());
    let Ok(entries) = std::fs::read_dir(std::env::temp_dir()) else {
        return Vec::new();
    };
    entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&prefix))
        })
        .collect()
}
