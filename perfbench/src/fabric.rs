//! A bench-side [`Fabric`] that times the two calls where bytes move or a
//! connection ends, and otherwise defers to the fabric it wraps.

use std::cell::Cell;

use secmed_core::{Fabric, MedError, PartyId, Transport};

use crate::host::now_ns;

/// Fabric time spent by one query.
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricTimes {
    /// Calls to `carry` (one per frame copy).
    pub carries: u64,
    /// Nanoseconds inside `carry`.
    pub carry_ns: u64,
    /// Nanoseconds inside `into_recorder` (a socket says Goodbye there).
    pub teardown_ns: u64,
}

/// Wraps a fabric; the times land in `out` when the engine tears it down.
pub struct TimedFabric<'a, F> {
    inner: F,
    times: FabricTimes,
    out: &'a Cell<FabricTimes>,
}

impl<'a, F: Fabric> TimedFabric<'a, F> {
    pub fn new(inner: F, out: &'a Cell<FabricTimes>) -> Self {
        TimedFabric {
            inner,
            times: FabricTimes::default(),
            out,
        }
    }
}

impl<F: Fabric> Fabric for TimedFabric<'_, F> {
    fn recorder(&self) -> &Transport {
        self.inner.recorder()
    }

    fn recorder_mut(&mut self) -> &mut Transport {
        self.inner.recorder_mut()
    }

    fn carry(&mut self, from: &PartyId, to: &PartyId, bytes: &[u8]) -> Result<Vec<u8>, MedError> {
        let start = now_ns();
        let carried = self.inner.carry(from, to, bytes);
        self.times.carry_ns += now_ns() - start;
        self.times.carries += 1;
        carried
    }

    fn into_recorder(self) -> Result<Transport, MedError> {
        let start = now_ns();
        let recorder = self.inner.into_recorder();
        let mut times = self.times;
        times.teardown_ns = now_ns() - start;
        self.out.set(times);
        recorder
    }
}
