//! The scalar measurement oracle the kernel-equivalence suites share:
//! a [`MeasurementBackend`] that measures every window one
//! `Pinger::ping` at a time through `core::measure::measure_pair`,
//! resolving each ping's pair through the cache on its own. Slower than
//! the batched kernel of `NetsimBackend`, but definitionally correct:
//! the kernel must match it bit for bit. It overrides neither
//! `open_stage` nor `measure_chunk`, so it resolves no stage and every
//! executor measures it window by window.

use colo_shortcuts::core::backend::{MeasureTask, MeasurementBackend};
use colo_shortcuts::core::measure::{measure_pair, WindowConfig};
use colo_shortcuts::netsim::PingHandle;

pub struct ScalarOracle {
    pub handle: PingHandle,
    pub window: WindowConfig,
    pub campaign_seed: u64,
}

impl MeasurementBackend for ScalarOracle {
    fn measure(&self, task: &MeasureTask) -> Option<f64> {
        let mut rng = task.rng(self.campaign_seed);
        measure_pair(
            &self.handle,
            task.src,
            task.dst,
            task.start,
            &self.window,
            &mut rng,
        )
    }

    fn pings_sent(&self) -> u64 {
        self.handle.pings_sent()
    }
}
