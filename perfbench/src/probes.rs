//! Off-path probes: timed calls into each layer's public functions at
//! the 1000×2 shape, made from this process with no run in flight.
//! They give every layer a number of its own, including layers no
//! workload exercises on a 2-core host (the relay batch codec).

use std::hint::black_box;
use std::io::{Cursor, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use parmonc::messages::{decode_batch, encode_batch, Subtotal, TAG_SUBTOTAL};
use parmonc::{MatrixAccumulator, ResultsDir, StreamHierarchy, StreamId};
use parmonc_ipc::frame::{read_frame, write_frame_seq};
use parmonc_mpi::{BufferPool, World};
use parmonc_rng::distributions::standard_normal;
use parmonc_stats::report::LogReport;

use crate::workload::{find, NCOL, NROW};

/// Timed repetitions per probe; the probe reports their median.
const REPS: usize = 5;

/// Mean seconds per call of `op`, as the median over [`REPS`]
/// repetitions of `per_rep` each, after a warm-up of one repetition.
fn seconds_per_call(per_rep: Duration, mut op: impl FnMut()) -> f64 {
    // Calls between clock reads, grown until one batch takes ≥ 20 µs
    // so the clock is a negligible share of what is timed.
    let mut batch = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            op();
        }
        if t.elapsed() >= Duration::from_micros(20) || batch >= 1 << 20 {
            break;
        }
        batch *= 2;
    }
    let mut samples: Vec<f64> = (0..=REPS)
        .map(|_| {
            let t = Instant::now();
            let mut calls = 0u64;
            while t.elapsed() < per_rep {
                for _ in 0..batch {
                    op();
                }
                calls += batch;
            }
            t.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    samples.remove(0); // warm-up
    crate::median(&mut samples)
}

/// One filled 1000×2 accumulator, as a rank holds after some realizations.
fn filled_accumulator(realizations: usize) -> MatrixAccumulator {
    let workload = find("strict_threads").expect("strict_threads is a workload");
    let scheme = workload.scheme();
    let hierarchy = StreamHierarchy::default();
    let mut acc = MatrixAccumulator::new(NROW, NCOL).expect("1000x2 is a valid shape");
    let mut out = vec![0.0; NROW * NCOL];
    for r in 0..realizations {
        let mut stream = hierarchy
            .realization_stream(StreamId::new(0, 0, r as u64))
            .expect("stream 0/0/r exists");
        scheme.realize_into(&mut stream, &mut out);
        acc.add(&out).expect("shape matches");
    }
    acc
}

/// Runs every probe within roughly `budget` and returns `(name, value)`
/// pairs in the metric's unit (named by its suffix).
///
/// # Errors
///
/// An I/O or codec failure in a probed call.
pub fn run_all(budget: Duration, dir: &Path) -> Result<Vec<(&'static str, f64)>, String> {
    let per_rep = budget / (22 * (REPS as u32 + 1));
    let mut out = Vec::new();
    let hierarchy = StreamHierarchy::default();
    let us = 1e6;
    let ns = 1e9;

    // rng: stream positioning and draws.
    let mut cursor = hierarchy
        .cursor(StreamId::new(0, 0, 0))
        .map_err(|e| e.to_string())?;
    out.push((
        "rng.next_stream_ns",
        ns * seconds_per_call(per_rep, || {
            black_box(cursor.next_stream().expect("realization capacity is 2^40+"));
        }),
    ));
    let mut stream = hierarchy
        .realization_stream(StreamId::new(0, 0, 0))
        .map_err(|e| e.to_string())?;
    out.push((
        "rng.standard_normal_ns",
        ns * seconds_per_call(per_rep, || {
            black_box(standard_normal(&mut stream));
        }),
    ));
    let mut draws = vec![0.0; NROW * NCOL];
    out.push((
        "rng.fill_f64_ns_per_draw",
        ns / draws.len() as f64
            * seconds_per_call(per_rep, || {
                stream.fill_f64(&mut draws);
                black_box(&draws);
            }),
    ));

    // sde: the user routine itself.
    for (name, workload) in [
        ("sde.realize_us.stride1", "strict_threads"),
        ("sde.realize_us.stride40", "periodic_threads"),
    ] {
        let scheme = find(workload).expect("known workload").scheme();
        let mut realization = vec![0.0; NROW * NCOL];
        out.push((
            name,
            us * seconds_per_call(per_rep, || {
                scheme.realize_into(&mut stream, &mut realization);
                black_box(&realization);
            }),
        ));
    }

    // stats: accumulate one realization, merge two subtotals.
    let acc = filled_accumulator(8);
    let mut sink = MatrixAccumulator::new(NROW, NCOL).map_err(|e| e.to_string())?;
    out.push((
        "stats.add_us",
        us * seconds_per_call(per_rep, || {
            sink.add(black_box(&draws)).expect("shape matches");
        }),
    ));
    out.push((
        "stats.merge_us",
        us * seconds_per_call(per_rep, || {
            sink.merge(black_box(&acc)).expect("shape matches");
        }),
    ));

    // messages: the pooled subtotal codec and the relay batch codec.
    let pool = BufferPool::new(4);
    out.push((
        "messages.encode_us",
        us * seconds_per_call(per_rep, || {
            let payload = Subtotal::encode_state_pooled(&acc, 1.0, &pool);
            pool.recycle(black_box(payload));
        }),
    ));
    let payload = Subtotal::encode_state_pooled(&acc, 1.0, &pool);
    let mut slot = None;
    out.push((
        "messages.decode_us",
        us * seconds_per_call(per_rep, || {
            Subtotal::decode_into(&payload, &mut slot).expect("well-formed payload");
            black_box(&slot);
        }),
    ));
    let entries: Vec<(usize, bool, &[u8])> = (1..=4).map(|r| (r, false, &payload[..])).collect();
    out.push((
        "messages.batch_encode_us",
        us * seconds_per_call(per_rep, || {
            black_box(encode_batch(entries.iter().copied()));
        }),
    ));
    let batch = encode_batch(entries.iter().copied());
    out.push((
        "messages.batch_decode_us",
        us * seconds_per_call(per_rep, || {
            black_box(decode_batch(&batch).expect("well-formed batch"));
        }),
    ));

    // mpi: one 32 KB envelope each way between two rank threads.
    out.push(("mpi.send_recv_us", us * mpi_one_way(per_rep, &payload)?));

    // ipc: framing in memory, then 32 KB frame round trips.
    let mut wire = Vec::with_capacity(payload.len() + 64);
    out.push((
        "ipc.frame_write_us",
        us * seconds_per_call(per_rep, || {
            wire.clear();
            write_frame_seq(&mut wire, 1, TAG_SUBTOTAL.0, 7, &payload).expect("Vec write");
            black_box(&wire);
        }),
    ));
    out.push((
        "ipc.frame_read_us",
        us * seconds_per_call(per_rep, || {
            let frame = read_frame(&mut Cursor::new(&wire[..])).expect("whole frame");
            black_box(frame);
        }),
    ));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let client = TcpStream::connect(listener.local_addr().map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let (server, _) = listener.accept().map_err(|e| e.to_string())?;
    client.set_nodelay(true).map_err(|e| e.to_string())?;
    server.set_nodelay(true).map_err(|e| e.to_string())?;
    out.push((
        "ipc.tcp_rtt_us",
        us * frame_rtt(per_rep, client, server, &payload)?,
    ));
    let (a, b) = UnixStream::pair().map_err(|e| e.to_string())?;
    out.push(("ipc.unix_rtt_us", us * frame_rtt(per_rep, a, b, &payload)?));

    // files: the three kinds of save the runtime makes.
    let results = ResultsDir::create(dir).map_err(|e| e.to_string())?;
    out.push((
        "files.save_worker_state_us",
        us * seconds_per_call(per_rep, || {
            results
                .save_worker_state(1, &acc, 1.0)
                .expect("writable work dir");
        }),
    ));
    out.push((
        "files.save_checkpoint_us",
        us * seconds_per_call(per_rep, || {
            results.save_checkpoint(&acc).expect("writable work dir");
        }),
    ));
    let summary = acc.summary();
    let log = LogReport {
        sample_volume: acc.count(),
        mean_time_per_realization: 5e-5,
        eps_max: summary.eps_max,
        rho_max: summary.rho_max,
        sigma2_max: summary.sigma2_max,
        processors: 2,
        seqnum: 0,
    };
    out.push((
        "files.save_results_us",
        us * seconds_per_call(per_rep, || {
            results
                .save_results(&summary, &log)
                .expect("writable work dir");
        }),
    ));
    Ok(out)
}

/// Seconds per one-way 32 KB envelope between two `parmonc-mpi` rank
/// threads (half a ping-pong round trip).
fn mpi_one_way(per_rep: Duration, payload: &parmonc_mpi::Bytes) -> Result<f64, String> {
    let mut comms = World::communicators(2).map_err(|e| e.to_string())?;
    let mut echo = comms.pop().expect("two ranks");
    let mut origin = comms.pop().expect("two ranks");
    let echoer = std::thread::spawn(move || {
        while let Ok(env) = echo.recv(Some(0), None) {
            if env.tag == TAG_STOP_PROBE {
                break;
            }
            if echo.send_bytes(0, env.tag, env.payload).is_err() {
                break;
            }
        }
    });
    let rtt = seconds_per_call(per_rep, || {
        origin
            .send_bytes(1, TAG_SUBTOTAL, payload.clone())
            .expect("echo rank alive");
        black_box(origin.recv(Some(1), None).expect("echo rank alive"));
    });
    origin
        .send_bytes(1, TAG_STOP_PROBE, parmonc_mpi::Bytes::from(Vec::new()))
        .map_err(|e| e.to_string())?;
    echoer.join().map_err(|_| "mpi echo thread panicked")?;
    Ok(rtt / 2.0)
}

const TAG_STOP_PROBE: parmonc_mpi::Tag = parmonc_mpi::Tag(0xBEEF);

/// Seconds per round trip of one framed 32 KB payload over a connected
/// socket pair; the far end echoes each frame from its own thread.
fn frame_rtt<S>(per_rep: Duration, mut near: S, far: S, payload: &[u8]) -> Result<f64, String>
where
    S: Read + Write + Send + 'static,
{
    let echoer = std::thread::spawn(move || {
        let mut far = far;
        while let Ok(Some(frame)) = read_frame(&mut far) {
            if write_frame_seq(&mut far, frame.source, frame.tag, frame.seq, &frame.payload)
                .is_err()
            {
                break;
            }
        }
    });
    let rtt = seconds_per_call(per_rep, || {
        write_frame_seq(&mut near, 0, TAG_SUBTOTAL.0, 1, payload).expect("echo end alive");
        black_box(read_frame(&mut near).expect("echo end alive"));
    });
    drop(near); // EOF ends the echo loop
    echoer.join().map_err(|_| "socket echo thread panicked")?;
    Ok(rtt)
}
