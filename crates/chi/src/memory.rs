//! The memory controller model: one DDR channel.
//!
//! A controller is a latency + bandwidth pair: requests are issued at
//! most one per `issue_interval` cycles (channel bandwidth) and complete
//! `service_latency` cycles after issue (array access + queuing is the
//! caller's concern — queuing happens naturally here when requests
//! arrive faster than the interval allows).

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Parameters of one memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryParams {
    /// Cycles from issue to data availability.
    pub service_latency: u64,
    /// Minimum cycles between issues (1 / bandwidth).
    pub issue_interval: u64,
}

impl MemoryParams {
    /// A DDR4-like channel seen from a ~2 GHz NoC: ~60 cycles access,
    /// one 64-byte line every 4 cycles (~32 GB/s).
    pub fn ddr4() -> Self {
        MemoryParams {
            service_latency: 60,
            issue_interval: 4,
        }
    }
}

/// A single memory controller's request pipeline.
///
/// # Example
///
/// ```
/// use noc_chi::{MemoryModel, MemoryParams};
/// let mut m = MemoryModel::new(MemoryParams { service_latency: 10, issue_interval: 2 });
/// m.push(0, "req-a");
/// m.push(0, "req-b"); // queued behind req-a's issue slot
/// assert_eq!(m.pop_ready(9), None);
/// assert_eq!(m.pop_ready(10), Some("req-a"));
/// assert_eq!(m.pop_ready(11), None);
/// assert_eq!(m.pop_ready(12), Some("req-b"));
/// ```
#[derive(Debug, Clone)]
pub struct MemoryModel<T> {
    params: MemoryParams,
    next_issue: u64,
    in_service: VecDeque<(u64, T)>,
    served: u64,
}

impl<T> MemoryModel<T> {
    /// Create a controller with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `issue_interval` is zero.
    pub fn new(params: MemoryParams) -> Self {
        assert!(params.issue_interval > 0, "issue interval must be ≥ 1");
        MemoryModel {
            params,
            next_issue: 0,
            in_service: VecDeque::new(),
            served: 0,
        }
    }

    /// Accept a request at time `now`; it will be ready after channel
    /// scheduling plus service latency.
    pub fn push(&mut self, now: u64, payload: T) {
        let issue = self.next_issue.max(now);
        self.next_issue = issue + self.params.issue_interval;
        self.in_service
            .push_back((issue + self.params.service_latency, payload));
    }

    /// Pop the oldest request whose data is ready at `now`.
    pub fn pop_ready(&mut self, now: u64) -> Option<T> {
        if self.in_service.front().is_some_and(|&(r, _)| r <= now) {
            self.served += 1;
            self.in_service.pop_front().map(|(_, p)| p)
        } else {
            None
        }
    }

    /// Requests currently queued or in service.
    pub fn pending(&self) -> usize {
        self.in_service.len()
    }

    /// Requests completed over the model's lifetime.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// The controller's parameters.
    pub fn params(&self) -> MemoryParams {
        self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_applies() {
        let mut m = MemoryModel::new(MemoryParams {
            service_latency: 5,
            issue_interval: 1,
        });
        m.push(100, 1u32);
        assert_eq!(m.pop_ready(104), None);
        assert_eq!(m.pop_ready(105), Some(1));
        assert_eq!(m.served(), 1);
    }

    #[test]
    fn bandwidth_throttles_bursts() {
        let mut m = MemoryModel::new(MemoryParams {
            service_latency: 0,
            issue_interval: 10,
        });
        for i in 0..3 {
            m.push(0, i);
        }
        assert_eq!(m.pop_ready(0), Some(0));
        assert_eq!(m.pop_ready(9), None);
        assert_eq!(m.pop_ready(10), Some(1));
        assert_eq!(m.pop_ready(20), Some(2));
        assert_eq!(m.pending(), 0);
    }

    #[test]
    fn idle_channel_does_not_accumulate_credit() {
        let mut m = MemoryModel::new(MemoryParams {
            service_latency: 0,
            issue_interval: 4,
        });
        m.push(100, 'a');
        m.push(100, 'b');
        // 'b' issues at 104 even though the channel was idle before 100.
        assert_eq!(m.pop_ready(100), Some('a'));
        assert_eq!(m.pop_ready(103), None);
        assert_eq!(m.pop_ready(104), Some('b'));
    }

    #[test]
    #[should_panic(expected = "issue interval")]
    fn zero_interval_panics() {
        let _ = MemoryModel::<u8>::new(MemoryParams {
            service_latency: 1,
            issue_interval: 0,
        });
    }
}
