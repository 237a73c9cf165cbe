//! An independent DRAM command-legality checker.
//!
//! Test builds log every command a controller issues as
//! `(cycle, bank, ACT | PRE | RD | WR)`, at the `pre_at` / `act_at` /
//! `cas_at` that `Controller::schedule` computes, with each column
//! command's data-bus slot. [`violations`] replays a log against the
//! timing definitions — the bank state machine, tRCD, tRP, tRAS, tRTP,
//! tCCD_S/L and the data bus from [`HbmConfig`], plus four
//! representative HBM2 timings the config does not model — without
//! reading the scheduler's code. The test drives every HBM port of the
//! pinned table over the three traces and arrival patterns and fails on
//! any rule not in [`WAIVED`]; each waiver is a deliberate
//! simplification named in DESIGN.md ("DRAM command legality"), and a
//! waiver that no trace confirms fails the test too.

use std::collections::BTreeMap;

use super::*;
use crate::controller::{Command, CommandKind};

/// ACT to ACT, any two banks of the channel (tRRD). Representative HBM2
/// value; `HbmConfig` has no such field.
const T_RRD: Cycle = 4;
/// A window in which at most four ACTs may issue (tFAW). Representative.
const T_FAW: Cycle = 16;
/// End of a write burst to a PRE of its bank (tWR). Representative.
const T_WR: Cycle = 16;
/// End of a write burst to any RD of the channel (tWTR). Representative.
const T_WTR: Cycle = 8;

/// Rules the controller breaks on purpose, with the reason; DESIGN.md
/// names each. The bank state machine, tRCD, tRP, tRAS and the data bus
/// hold on every trace.
const WAIVED: &[(&str, &str)] = &[
    (
        "tRTP",
        "a row-conflict precharge waits for the bank's next CAS slot and \
         tRAS, not tRTP after its last read",
    ),
    (
        "tCCD_S",
        "CAS spacing is kept per bank; across banks only the data-bus \
         reservation spaces the bursts",
    ),
    (
        "tCCD_L",
        "tCCD_L spaces only the issuing bank's next CAS, not the other \
         banks of its group",
    ),
    (
        "tCL",
        "a CAS issues when its bank is ready and its burst takes the next \
         free data-bus slot, however far after CAS + tCL that is",
    ),
    ("tRRD", "the model has no ACT-to-ACT spacing across banks"),
    ("tFAW", "the model has no four-activate window"),
    ("tWR", "the model has no write recovery before a precharge"),
    ("tWTR", "the model has no write-to-read turnaround"),
];

/// Per-bank state of the replay.
#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open: Option<u64>,
    act: Option<Cycle>,
    pre: Option<Cycle>,
    rd: Option<Cycle>,
    wr_end: Option<Cycle>,
}

/// Every rule `log` breaks, as `(rule, command)`, checked in command-cycle
/// order (ties keep issue order).
fn violations(cfg: &HbmConfig, log: &[Command]) -> Vec<(&'static str, Command)> {
    let mut cmds = log.to_vec();
    cmds.sort_by_key(|c| c.cycle);
    let mut found = Vec::new();
    let mut banks = vec![Bank::default(); cfg.banks];
    let mut acts: Vec<Cycle> = Vec::new();
    let mut last_cas: Option<Cycle> = None;
    let mut last_cas_in_group = vec![None; cfg.banks.div_ceil(cfg.banks_per_group)];
    let mut last_wr_end: Option<Cycle> = None;
    let mut bursts = Vec::new();
    for c in &cmds {
        let mut flag = |rule, ok: bool| {
            if !ok {
                found.push((rule, *c));
            }
        };
        // `c` is at least `gap` cycles after `prev`.
        let after = |prev: Option<Cycle>, gap: Cycle| prev.is_none_or(|p| c.cycle >= p + gap);
        let b = &mut banks[c.bank];
        match c.kind {
            CommandKind::Act { row } => {
                flag("state", b.open.is_none());
                flag("tRP", after(b.pre, cfg.t_rp));
                flag("tRRD", after(acts.last().copied(), T_RRD));
                let fourth_last = acts.len().checked_sub(4).map(|i| acts[i]);
                flag("tFAW", after(fourth_last, T_FAW));
                acts.push(c.cycle);
                b.open = Some(row);
                b.act = Some(c.cycle);
            }
            CommandKind::Pre => {
                flag("state", b.open.is_some());
                flag("tRAS", after(b.act, cfg.t_ras));
                flag("tRTP", after(b.rd, cfg.t_rtp));
                flag("tWR", after(b.wr_end, T_WR));
                b.open = None;
                b.pre = Some(c.cycle);
            }
            CommandKind::Rd { row, data_at } | CommandKind::Wr { row, data_at } => {
                let group = c.bank / cfg.banks_per_group;
                flag("state", b.open == Some(row));
                flag("tRCD", after(b.act, cfg.t_rcd));
                flag("tCCD_S", after(last_cas, cfg.t_ccd_s));
                flag("tCCD_L", after(last_cas_in_group[group], cfg.t_ccd_l));
                flag("tCL", data_at == c.cycle + cfg.t_cl);
                if let CommandKind::Wr { .. } = c.kind {
                    let end = data_at + cfg.t_bl;
                    b.wr_end = Some(end);
                    last_wr_end = last_wr_end.max(Some(end));
                } else {
                    flag("tWTR", after(last_wr_end, T_WTR));
                    b.rd = Some(c.cycle);
                }
                last_cas = Some(c.cycle);
                last_cas_in_group[group] = Some(c.cycle);
                bursts.push((data_at, *c));
            }
        }
    }
    // The data bus carries one burst at a time.
    bursts.sort_by_key(|&(at, _)| at);
    for pair in bursts.windows(2) {
        if pair[1].0 < pair[0].0 + cfg.t_bl {
            found.push(("data bus", pair[1].1));
        }
    }
    found
}

#[test]
fn the_checker_flags_each_rule() {
    let cfg = HbmConfig::default();
    let cmd = |cycle, bank, kind| Command { cycle, bank, kind };
    let act = |cycle, bank| cmd(cycle, bank, CommandKind::Act { row: 1 });
    let pre = |cycle, bank| cmd(cycle, bank, CommandKind::Pre);
    let rd = |cycle, bank| {
        let data_at = cycle + cfg.t_cl;
        cmd(cycle, bank, CommandKind::Rd { row: 1, data_at })
    };
    let wr = |cycle, bank| {
        let data_at = cycle + cfg.t_cl;
        cmd(cycle, bank, CommandKind::Wr { row: 1, data_at })
    };
    // ACT, RD at tRCD, PRE at tRAS, ACT at tRP; a second bank group's
    // bank opened tRRD later and read tCCD_S after the first read.
    let legal = vec![
        act(0, 0),
        act(4, 4),
        rd(14, 0),
        rd(18, 4),
        pre(28, 0),
        act(42, 0),
    ];
    assert_eq!(violations(&cfg, &legal), []);
    let late_data = cmd(
        14,
        0,
        CommandKind::Rd {
            row: 1,
            data_at: 30,
        },
    );
    let cases: [(&str, Vec<Command>); 13] = [
        ("state", vec![rd(14, 0)]),
        ("tRCD", vec![act(0, 0), rd(13, 0)]),
        ("tRP", vec![act(0, 0), pre(28, 0), act(41, 0)]),
        ("tRAS", vec![act(0, 0), pre(27, 0)]),
        ("tRTP", vec![act(0, 0), rd(26, 0), pre(29, 0)]),
        ("tCCD_S", vec![act(0, 0), act(4, 4), rd(17, 0), rd(18, 4)]),
        ("tCCD_L", vec![act(0, 0), act(4, 1), rd(17, 0), rd(20, 1)]),
        ("tCL", vec![act(0, 0), late_data]),
        ("data bus", vec![act(0, 0), late_data, act(4, 4), rd(17, 4)]),
        ("tRRD", vec![act(0, 0), act(3, 4)]),
        (
            "tFAW",
            vec![act(0, 0), act(4, 4), act(8, 8), act(12, 12), act(15, 1)],
        ),
        ("tWR", vec![act(0, 0), wr(14, 0), pre(45, 0)]),
        ("tWTR", vec![act(0, 0), act(4, 4), wr(14, 0), rd(37, 4)]),
    ];
    for (rule, log) in cases {
        let found = violations(&cfg, &log);
        assert!(
            found.iter().any(|&(r, _)| r == rule),
            "{rule} not flagged in {log:?}: {found:?}"
        );
    }
}

#[test]
fn hbm_commands_obey_every_timing_rule_not_waived() {
    // Per rule: how many commands broke it, and the first of them.
    let mut found: BTreeMap<&str, (usize, String)> = BTreeMap::new();
    for (trace_name, trace) in traces() {
        for (port, cfg, channels) in policy_ports().into_iter().chain(depth_two_ports()) {
            for (pattern, arrivals) in arrival_patterns(trace.len()) {
                let mut chan = HbmChannel::interleaved(cfg.clone(), image(), channels);
                drive(&mut chan, &trace, &arrivals, false);
                for (ch, log) in chan.command_logs().into_iter().enumerate() {
                    for (rule, c) in violations(&cfg, log) {
                        let entry = found.entry(rule).or_insert_with(|| {
                            let at = format!("{trace_name} on {port}, {pattern}, channel {ch}");
                            (0, format!("{c:?} ({at})"))
                        });
                        entry.0 += 1;
                    }
                }
            }
        }
    }
    let waived = |rule: &str| WAIVED.iter().any(|&(w, _)| w == rule);
    let broken: Vec<String> = found
        .iter()
        .filter(|(rule, _)| !waived(rule))
        .map(|(rule, (n, first))| format!("{rule}: {n} commands, first {first}"))
        .collect();
    assert!(
        broken.is_empty(),
        "illegal commands:\n{}",
        broken.join("\n")
    );
    let unconfirmed: Vec<&str> = WAIVED
        .iter()
        .map(|&(rule, _)| rule)
        .filter(|rule| !found.contains_key(rule))
        .collect();
    assert!(
        unconfirmed.is_empty(),
        "waivers no trace confirms: {unconfirmed:?}"
    );
}
