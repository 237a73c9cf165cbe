//! Crate-level tests: block arithmetic, request construction, and the
//! [`ChannelPort::next_event`] contract — a driver that jumps to the
//! port's next event whenever it has nothing to offer sees exactly what a
//! driver that ticks every cycle sees.

use nmpic_sim::{Cycle, SimClock, SimRng};

use super::*;

mod legality;
mod port_counts;

#[test]
fn block_math_is_consistent() {
    for addr in [0u64, 1, 63, 64, 65, 1000, 4096, u32::MAX as u64] {
        assert_eq!(block_addr(addr) + block_offset(addr) as u64, addr);
        assert_eq!(block_addr(addr) % BLOCK_BYTES as u64, 0);
        assert!(block_offset(addr) < BLOCK_BYTES);
    }
}

#[test]
fn wide_request_aligns_addresses() {
    let r = WideRequest::read(100, 7);
    assert_eq!(r.addr, 64);
    assert_eq!(r.tag, 7);
    assert_eq!(r.command, WideCommand::Read);
    let w = WideRequest::write(100, 3, [0u8; BLOCK_BYTES]);
    assert_ne!(w.command, WideCommand::Read);
}

const IMAGE_BYTES: usize = 1 << 20;

/// Everything a driver can observe of one run: each response with the
/// cycle it was popped in, the final cycle, the DRAM statistics and the
/// traffic counter.
type Observed = (Vec<(Cycle, WideResponse)>, Cycle, Option<HbmStats>, u64);

/// Offers `trace` in order, request `i` no earlier than cycle
/// `arrivals[i]` and one attempt per cycle, until every request is
/// accepted and the port has drained. With `skip`, a cycle after which
/// the driver has nothing to offer ends with a jump to the earlier of the
/// next arrival and the port's next event.
fn drive(
    chan: &mut dyn ChannelPort,
    trace: &[WideRequest],
    arrivals: &[Cycle],
    skip: bool,
) -> Observed {
    let mut clk = SimClock::new("timed trace", 10_000_000);
    let mut delivered = Vec::new();
    let mut issued = 0;
    while issued < trace.len() || !chan.is_idle() {
        let now = clk.now();
        if issued < trace.len()
            && arrivals[issued] <= now
            && chan.try_request(now, trace[issued].clone()).is_ok()
        {
            issued += 1;
        }
        chan.tick(now);
        while let Some(r) = chan.pop_response(now) {
            delivered.push((now, r));
        }
        let finished = issued == trace.len() && chan.is_idle();
        if skip && !finished {
            // A due arrival (just refused, or next in line) is at or
            // before `now`, which makes this a plain tick.
            let offer = arrivals.get(issued).copied();
            let wake = offer.into_iter().chain(chan.next_event()).min();
            clk.advance_to(wake.unwrap_or(Cycle::MAX));
        } else {
            clk.tick();
        }
    }
    (delivered, clk.now(), chan.dram_stats(), chan.data_bytes())
}

fn stream() -> Vec<WideRequest> {
    (0..600u64).map(|i| WideRequest::read(i * 64, i)).collect()
}

fn random() -> Vec<WideRequest> {
    let mut rng = SimRng::new(0x5EED);
    (0..600u64)
        .map(|i| WideRequest::read(rng.gen_u64(0, IMAGE_BYTES as u64) & !63, i))
        .collect()
}

/// Reads and half-masked writes alternating over pseudo-random blocks.
fn write_mix() -> Vec<WideRequest> {
    let addr = |i: u64| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % (1 << 16)) & !63;
    (0..600u64)
        .map(|i| match i % 2 {
            0 => WideRequest::read(addr(i), i),
            _ => WideRequest::write_masked(addr(i), i, [i as u8; 64], 0xFFFF_FFFF),
        })
        .collect()
}

/// The three traces every port is driven with.
fn traces() -> [(&'static str, Vec<WideRequest>); 3] {
    [
        ("stream", stream()),
        ("random", random()),
        ("write mix", write_mix()),
    ]
}

/// Arrival cycles: all at once, bursts of 16 every 400 cycles, and one
/// request every 37 cycles.
fn arrival_patterns(n: usize) -> [(&'static str, Vec<Cycle>); 3] {
    let n = n as u64;
    [
        ("at once", vec![0; n as usize]),
        ("bursts", (0..n).map(|i| i / 16 * 400).collect()),
        ("trickle", (0..n).map(|i| i * 37).collect()),
    ]
}

fn image() -> Memory {
    let mut mem = Memory::new(IMAGE_BYTES);
    for i in 0..(1u64 << 16) / 8 {
        mem.write_u64(i * 8, !i);
    }
    mem
}

/// Builds a fresh port over [`image`].
type Build = Box<dyn Fn() -> Box<dyn ChannelPort>>;

/// An HBM port: its name, controller configuration and channel count.
type HbmPort = (String, HbmConfig, usize);

/// One and eight HBM channels under each scheduling and page policy.
fn policy_ports() -> Vec<HbmPort> {
    let mut ports = Vec::new();
    for channels in [1usize, 8] {
        for sched_policy in [SchedPolicy::FrFcfs, SchedPolicy::Fcfs] {
            for page_policy in [
                PagePolicy::OpenAdaptive,
                PagePolicy::Open,
                PagePolicy::Closed,
            ] {
                let cfg = HbmConfig {
                    sched_policy,
                    page_policy,
                    ..HbmConfig::default()
                };
                let name = format!("hbm x{channels} {sched_policy:?} {page_policy:?}");
                ports.push((name, cfg, channels));
            }
        }
    }
    ports
}

/// One and eight HBM channels behind a two-entry queue, which refuses
/// most offers.
fn depth_two_ports() -> Vec<HbmPort> {
    let cfg = HbmConfig {
        queue_depth: 2,
        ..HbmConfig::default()
    };
    [1usize, 8]
        .map(|channels| {
            (
                format!("hbm x{channels}, queue depth 2"),
                cfg.clone(),
                channels,
            )
        })
        .into()
}

fn hbm_build((name, cfg, channels): HbmPort) -> (String, Build) {
    let build: Build =
        Box::new(move || Box::new(HbmChannel::interleaved(cfg.clone(), image(), channels)));
    (name, build)
}

/// Every port the contract covers: the ideal channel, and one and eight
/// HBM channels under each scheduling and page policy.
fn ports() -> Vec<(String, Build)> {
    let ideal: Build = Box::new(|| BackendConfig::ideal().build(image()));
    std::iter::once(("ideal".to_string(), ideal))
        .chain(policy_ports().into_iter().map(hbm_build))
        .collect()
}

fn assert_skipping_matches_ticking(
    what: &str,
    build: &dyn Fn() -> Box<dyn ChannelPort>,
    trace: &[WideRequest],
) {
    for (pattern, arrivals) in arrival_patterns(trace.len()) {
        let ctx = format!("{what}, {pattern}");
        let ticked = drive(&mut *build(), trace, &arrivals, false);
        let skipped = drive(&mut *build(), trace, &arrivals, true);
        let order = |o: &Observed| o.0.iter().map(|(_, r)| r.tag).collect::<Vec<_>>();
        assert_eq!(order(&skipped), order(&ticked), "{ctx}: response order");
        assert_eq!(skipped.0, ticked.0, "{ctx}: delivery cycles and data");
        assert_eq!(skipped.1, ticked.1, "{ctx}: final cycle");
        assert_eq!(skipped.2, ticked.2, "{ctx}: DRAM statistics");
        assert_eq!(skipped.3, ticked.3, "{ctx}: traffic");
        if pattern == "at once" {
            let (responses, cycles) = run_trace(&mut *build(), trace);
            let plain: Vec<WideResponse> = ticked.0.iter().map(|(_, r)| r.clone()).collect();
            assert_eq!((plain, ticked.1), (responses, cycles), "{ctx}: run_trace");
        }
    }
}

#[test]
fn skipping_to_next_event_reproduces_the_ticking_driver() {
    for (trace_name, trace) in traces() {
        for (port, build) in ports() {
            assert_skipping_matches_ticking(&format!("{trace_name} on {port}"), &*build, &trace);
        }
    }
}

/// A two-entry queue refuses most offers; the driver never skips past a
/// refusal, and the jumps it does take land on the same cycles.
#[test]
fn skipping_holds_under_queue_backpressure() {
    for (port, build) in depth_two_ports().into_iter().map(hbm_build) {
        for (trace_name, trace) in [("random", random()), ("write mix", write_mix())] {
            assert_skipping_matches_ticking(&format!("{trace_name} on {port}"), &*build, &trace);
        }
    }
}

#[test]
fn an_idle_port_has_no_next_event() {
    for (port, build) in ports() {
        let mut chan = build();
        assert_eq!(chan.next_event(), None, "{port}: fresh");
        chan.try_request(0, WideRequest::read(128, 0)).unwrap();
        assert_eq!(chan.next_event(), Some(0), "{port}: can issue now");
        run_trace(&mut *chan, &[]);
        assert!(chan.is_idle(), "{port}");
        assert_eq!(chan.next_event(), None, "{port}: drained");
    }
}
