//! Fault-injection runtime: per-directed-link state, the sorted event
//! cursor, and the world methods that install and resolve fault
//! targets. The event-time application lives in [`super::events`]
//! (`apply_next_fault`); this module owns the state it mutates.

use pmsb_faults::{FaultEvent, FaultKind, FaultSchedule, FaultTarget};
use pmsb_simcore::rng::SimRng;

use crate::trace::FaultReport;

use super::{NodeRef, World};

/// One directed end of a cable: the port that transmits onto it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LinkEnd {
    /// A host's NIC-side end.
    Host(usize),
    /// `(switch, port)` end.
    SwitchPort(usize, usize),
}

impl LinkEnd {
    /// The transmitting node and its port index (0 for a host's NIC).
    pub(crate) fn node(self) -> (NodeRef, usize) {
        match self {
            LinkEnd::Host(h) => (NodeRef::Host(h), 0),
            LinkEnd::SwitchPort(s, p) => (NodeRef::Switch(s), p),
        }
    }
}

/// What the injector decided for one serialized packet.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Fate {
    Clean,
    Lost,
    Corrupted,
}

/// Live fault state of one directed link end.
pub(crate) struct LinkFaultState {
    pub(crate) up: bool,
    /// Degraded rate override (`None` = the wired rate).
    pub(crate) rate_bps: Option<u64>,
    pub(crate) loss_p: f64,
    pub(crate) corrupt_p: f64,
    /// This end's private random stream; only consumed while a loss or
    /// corruption probability is active, so inactive links draw nothing.
    rng: SimRng,
}

impl LinkFaultState {
    fn new(rng: SimRng) -> Self {
        LinkFaultState {
            up: true,
            rate_bps: None,
            loss_p: 0.0,
            corrupt_p: 0.0,
            rng,
        }
    }

    /// One admission decision per serialized packet.
    pub(crate) fn fate(&mut self) -> Fate {
        if self.loss_p > 0.0 && self.rng.uniform() < self.loss_p {
            return Fate::Lost;
        }
        if self.corrupt_p > 0.0 && self.rng.uniform() < self.corrupt_p {
            return Fate::Corrupted;
        }
        Fate::Clean
    }
}

/// Runtime the world carries only when a [`FaultSchedule`] is attached:
/// the sorted event list, per-directed-link state, and the report.
/// Fault-free runs hold `None` and pay a single branch per packet.
pub(crate) struct FaultRuntime {
    /// Schedule events sorted by time; applied in order by `next`.
    pub(crate) events: Vec<FaultEvent>,
    pub(crate) next: usize,
    pub(crate) hosts: Vec<LinkFaultState>,
    /// `switches[s][p]` = state of switch `s` port `p`'s outgoing side.
    pub(crate) switches: Vec<Vec<LinkFaultState>>,
    pub(crate) report: FaultReport,
}

impl FaultRuntime {
    /// The live fault state of `end`.
    pub(crate) fn end(&self, end: LinkEnd) -> &LinkFaultState {
        match end {
            LinkEnd::Host(h) => &self.hosts[h],
            LinkEnd::SwitchPort(s, p) => &self.switches[s][p],
        }
    }

    /// The live fault state of `end`, mutably.
    pub(crate) fn end_mut(&mut self, end: LinkEnd) -> &mut LinkFaultState {
        match end {
            LinkEnd::Host(h) => &mut self.hosts[h],
            LinkEnd::SwitchPort(s, p) => &mut self.switches[s][p],
        }
    }
}

/// Salt namespace separating switch-port fault streams from host
/// streams (hosts use their index directly).
const SWITCH_FAULT_SALT: u64 = 1 << 40;

/// One line of the fault timeline log.
pub(crate) fn fault_desc(ev: &FaultEvent) -> String {
    let target = match ev.target {
        FaultTarget::HostLink(h) => format!("host:{h}"),
        FaultTarget::SwitchLink { switch, port } => format!("switch:{switch}:{port}"),
        FaultTarget::Switch(s) => format!("switch:{s}"),
    };
    match ev.kind {
        FaultKind::LinkDown => format!("link-down {target}"),
        FaultKind::LinkUp => format!("link-up {target}"),
        FaultKind::Rate(Some(bps)) => format!("rate {target} {bps}"),
        FaultKind::Rate(None) => format!("rate {target} restore"),
        FaultKind::Loss(p) => format!("loss {target} {p}"),
        FaultKind::Corrupt(p) => format!("corrupt {target} {p}"),
        FaultKind::BufferBytes(b) => format!("buffer {target} {b}"),
    }
}

impl World {
    /// Attaches a fault schedule (call after wiring, before the run).
    ///
    /// Every directed link end gets its own random stream forked from the
    /// schedule's seed, so fault randomness is deterministic and fully
    /// independent of the workload RNG. Without a schedule the run takes
    /// no fault branches beyond a `None` check per packet.
    ///
    /// # Panics
    ///
    /// Panics if an event targets a host, switch, or port that does not
    /// exist, or a host that is not wired.
    pub fn set_faults(&mut self, schedule: FaultSchedule) {
        let events = schedule.sorted_events();
        for ev in &events {
            self.validate_fault_target(ev);
        }
        let hosts = (0..self.hosts.len())
            .map(|h| LinkFaultState::new(schedule.stream(h as u64)))
            .collect();
        let switches = self
            .switches
            .iter()
            .enumerate()
            .map(|(s, sw)| {
                (0..sw.ports.len())
                    .map(|p| {
                        let salt = SWITCH_FAULT_SALT | ((s as u64) << 20) | p as u64;
                        LinkFaultState::new(schedule.stream(salt))
                    })
                    .collect()
            })
            .collect();
        self.faults = Some(Box::new(FaultRuntime {
            events,
            next: 0,
            hosts,
            switches,
            report: FaultReport::default(),
        }));
    }

    fn validate_fault_target(&self, ev: &FaultEvent) {
        match ev.target {
            FaultTarget::HostLink(h) => {
                assert!(h < self.hosts.len(), "fault targets unknown host {h}");
                assert!(
                    self.hosts[h].link.is_some(),
                    "fault targets unwired host {h}"
                );
            }
            FaultTarget::SwitchLink { switch, port } => {
                assert!(
                    switch < self.switches.len(),
                    "fault targets unknown switch {switch}"
                );
                assert!(
                    port < self.switches[switch].ports.len(),
                    "fault targets unknown port {port} on switch {switch}"
                );
            }
            FaultTarget::Switch(s) => {
                assert!(s < self.switches.len(), "fault targets unknown switch {s}");
            }
        }
    }

    /// Both directed ends of the cable a link-scoped fault names.
    pub(super) fn link_ends(&self, target: FaultTarget) -> [LinkEnd; 2] {
        match target {
            FaultTarget::HostLink(h) => {
                let link = self.hosts[h].link.expect("validated: host is wired");
                let NodeRef::Switch(s) = link.peer else {
                    unreachable!("hosts attach to switches");
                };
                [LinkEnd::Host(h), LinkEnd::SwitchPort(s, link.peer_port)]
            }
            FaultTarget::SwitchLink { switch, port } => {
                let link = self.switches[switch].ports[port].link;
                let far = match link.peer {
                    NodeRef::Host(h) => LinkEnd::Host(h),
                    NodeRef::Switch(t) => LinkEnd::SwitchPort(t, link.peer_port),
                };
                [LinkEnd::SwitchPort(switch, port), far]
            }
            FaultTarget::Switch(_) => unreachable!("switch-wide faults have no link ends"),
        }
    }
}
