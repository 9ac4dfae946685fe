//! Engine-matrix helpers shared by the root differential suites.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes every test that reads or writes the engine-selection
/// environment (`System::with_memory` consults `GENESIS_ENGINE` at
/// construction, and the test harness runs test functions concurrently in
/// one process).
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`ENV_LOCK`], recovering it if a failed test poisoned it.
pub fn env_lock() -> MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Every simulation engine, by its `GENESIS_ENGINE` name.
pub const MATRIX: [&str; 2] = ["event", "reference"];

/// Runs `f` with `engine` exported as `GENESIS_ENGINE`. The caller must
/// hold [`env_lock`].
pub fn with_engine<T>(engine: &str, f: impl FnOnce() -> T) -> T {
    std::env::set_var("GENESIS_ENGINE", engine);
    let out = f();
    std::env::remove_var("GENESIS_ENGINE");
    out
}
