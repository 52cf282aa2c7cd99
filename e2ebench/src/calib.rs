//! Host-speed references: fixed work owned by the benchmark, timed on
//! the process CPU clock beside the workload's own work.
//!
//! On a shared host the CPU time of the same work moves by tens of
//! percent from one minute to the next (other guests on the sibling
//! hardware thread, clock frequency), far more than a run-to-run bound
//! can absorb. Reference samples taken before every proposal (cells) or
//! every fleet (service) measure the host's speed while the workload
//! runs; the workload's times are then reported at the reference speed:
//! raw time over the slowdown, the median reference time over nominal.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::clock::process_cpu;
use crate::stats::median;

/// Time of one [`compute_sample`] at the reference speed, in ms.
pub const COMPUTE_NOMINAL_MS: f64 = 0.6;
/// Time of one [`WireRef`] round trip at the reference speed, in µs.
pub const WIRE_NOMINAL_US: f64 = 12.0;

/// CPU time spent in reference samples so far, in ns.
static REFERENCE_NS: AtomicU64 = AtomicU64::new(0);

/// Process CPU time less the time spent in reference samples: the clock
/// every end-to-end timing is read from.
pub fn program_cpu() -> Duration {
    process_cpu() - Duration::from_nanos(REFERENCE_NS.load(Ordering::Relaxed))
}

fn charge(d: Duration) -> Duration {
    REFERENCE_NS.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    d
}

/// How many times slower than the reference speed the host ran: the
/// median reference sample over its nominal time.
pub fn slowdown(samples: &[f64], nominal: f64) -> f64 {
    median(samples) / nominal
}

/// Points and dimensions of the reference kernel matrix.
const N: usize = 128;
const D: usize = 10;

/// Dense numerical work like a GP fit: an RBF kernel matrix over fixed
/// points, its Cholesky factor, and one solve. Returns its CPU time.
pub fn compute_sample() -> Duration {
    let c0 = process_cpu();
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let xs: Vec<[f64; D]> = (0..N).map(|_| std::array::from_fn(|_| next())).collect();
    let mut k = vec![0.0; N * N];
    for i in 0..N {
        for j in 0..N {
            let d2: f64 = (0..D).map(|a| (xs[i][a] - xs[j][a]).powi(2)).sum();
            k[i * N + j] = (-0.5 * d2 / 0.3).exp() + if i == j { 1e-3 } else { 0.0 };
        }
    }
    for j in 0..N {
        let diag = (k[j * N + j] - (0..j).map(|p| k[j * N + p].powi(2)).sum::<f64>()).sqrt();
        k[j * N + j] = diag;
        for i in j + 1..N {
            let dot: f64 = (0..j).map(|p| k[i * N + p] * k[j * N + p]).sum();
            k[i * N + j] = (k[i * N + j] - dot) / diag;
        }
    }
    let mut y: Vec<f64> = (0..N).map(|_| next()).collect();
    for i in 0..N {
        let dot: f64 = (0..i).map(|p| k[i * N + p] * y[p]).sum();
        y[i] = (y[i] - dot) / k[i * N + i];
    }
    std::hint::black_box(&y);
    charge(process_cpu() - c0)
}

/// Frame size of the wire reference, about that of an ask or tell.
const FRAME: usize = 96;

/// A loopback TCP echo pair: a thread that echoes fixed-size frames
/// back to the client end.
pub struct WireRef {
    client: TcpStream,
    echo: Option<JoinHandle<()>>,
}

impl WireRef {
    pub fn start() -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let client = TcpStream::connect(listener.local_addr()?)?;
        client.set_nodelay(true)?;
        let (mut server, _) = listener.accept()?;
        server.set_nodelay(true)?;
        let echo = std::thread::spawn(move || {
            let mut buf = [0u8; FRAME];
            while server.read_exact(&mut buf).is_ok() && server.write_all(&buf).is_ok() {}
        });
        Ok(WireRef {
            client,
            echo: Some(echo),
        })
    }

    /// CPU time of one round trip (both threads, kernel included),
    /// averaged over `trips`.
    pub fn sample(&mut self, trips: u32) -> std::io::Result<Duration> {
        let mut buf = [7u8; FRAME];
        let c0 = process_cpu();
        for _ in 0..trips {
            self.client.write_all(&buf)?;
            self.client.read_exact(&mut buf)?;
        }
        Ok(charge(process_cpu() - c0) / trips)
    }
}

impl Drop for WireRef {
    fn drop(&mut self) {
        let _ = self.client.shutdown(std::net::Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_samples_are_left_out_of_the_program_clock() {
        let (program0, process0) = (program_cpu(), process_cpu());
        let compute = compute_sample();
        let mut wire = WireRef::start().expect("loopback echo");
        let trip = wire.sample(10).expect("round trips");
        drop(wire);
        let process = process_cpu() - process0;
        assert!(compute > Duration::ZERO && trip > Duration::ZERO);
        assert!(process >= compute + trip * 10);
        assert!(program_cpu() - program0 <= process - compute);
        assert_eq!(slowdown(&[1.0, 2.0, 3.0], 2.0), 1.0);
    }
}
