//! Helpers shared by the integration tests.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch path under the system temp dir (process id +
/// monotonic counter — no wall clock, no RNG). Not created.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ola-{tag}-{}-{n}", std::process::id()))
}
