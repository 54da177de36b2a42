//! Transfer outcome summary.

use vdr_cluster::SimDuration;

/// What a load accomplished and what it cost in simulated time. The split
/// into a database part and a client (R) part mirrors Figure 14's breakdown:
/// "The DB part includes time taken by Vertica to read data from disk,
/// serialize, and send it across the network. The R part includes the time
/// taken by Distributed R instances to receive data, buffer it, and finally
/// convert to an R object."
#[derive(Debug, Clone, serde::Serialize)]
pub struct TransferReport {
    /// Rows delivered into the client runtime.
    pub rows: u64,
    /// Scalar values delivered (rows × columns).
    pub values: u64,
    /// Raw (binary) bytes represented by the delivered data.
    pub bytes: u64,
    /// Database-side simulated time (disk, export CPU, wire — pipelined).
    pub db_time: SimDuration,
    /// Client-side simulated time (buffer + convert to R objects).
    pub client_time: SimDuration,
    /// Receive-side waiting. For ODBC bursts this is connections queuing on
    /// admission control. For VFT it is the receive pools' idle window while
    /// the export query was still producing: `db_time` minus the conversion
    /// work that pipelined under it, clamped at zero when conversion is the
    /// bottleneck.
    pub queue_time: SimDuration,
}

impl TransferReport {
    /// End-to-end simulated load time.
    pub fn total(&self) -> SimDuration {
        self.db_time + self.client_time + self.queue_time
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_components() {
        let r = TransferReport {
            rows: 10,
            values: 20,
            bytes: 160,
            db_time: SimDuration::from_secs(5.0),
            client_time: SimDuration::from_secs(3.0),
            queue_time: SimDuration::from_secs(2.0),
        };
        assert_eq!(r.total().as_secs(), 10.0);
    }
}
