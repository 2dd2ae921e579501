//! Missed-heartbeat failure detection.
//!
//! Every replication frame doubles as a liveness beacon (plus explicit
//! [`Heartbeat`](crate::replog::ReplKind::Heartbeat) records so an idle
//! control plane still beacons). The detector watches per-node last-seen
//! ticks and walks each node through `Alive → Suspect → Dead`:
//!
//! * `Suspect` after [`DetectorConfig::suspect_after`] silent ticks — the
//!   node may just be slow or its wire lossy; nothing is torn down yet;
//! * `Dead` after [`DetectorConfig::dead_after`] silent ticks — the
//!   coordinator commits to failover.
//!
//! `Dead` is sticky: once failover ran, a zombie heartbeat from a
//! partitioned-but-running node must not resurrect it (its users now live
//! elsewhere; resurrecting would split-brain the cluster).

/// Detector timing, in coordinator ticks.
#[derive(Debug, Clone, Copy)]
pub struct DetectorConfig {
    /// Silent ticks before a node is suspected.
    pub suspect_after: u64,
    /// Silent ticks before a node is declared dead. Read as at least
    /// `suspect_after + 1`.
    pub dead_after: u64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig { suspect_after: 3, dead_after: 6 }
    }
}

/// A node's health as the detector sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeHealth {
    Alive,
    Suspect,
    Dead,
}

/// The per-node missed-heartbeat detector.
pub struct FailureDetector {
    cfg: DetectorConfig,
    last_seen: Vec<u64>,
    health: Vec<NodeHealth>,
}

impl FailureDetector {
    /// Track `n` nodes, all initially alive and seen "now" (tick 0). A
    /// node is suspected after at least one silent tick and declared dead
    /// strictly after it is suspected: `cfg` is raised to that if needed.
    pub fn new(n: usize, mut cfg: DetectorConfig) -> Self {
        cfg.suspect_after = cfg.suspect_after.max(1);
        cfg.dead_after = cfg.dead_after.max(cfg.suspect_after + 1);
        FailureDetector { cfg, last_seen: vec![0; n], health: vec![NodeHealth::Alive; n] }
    }

    /// A liveness signal from `node` at `tick`. A suspected node recovers
    /// to alive; a dead node stays dead (failover already ran).
    pub fn observe_heartbeat(&mut self, node: usize, tick: u64) {
        if self.health[node] == NodeHealth::Dead {
            return;
        }
        self.last_seen[node] = self.last_seen[node].max(tick);
        self.health[node] = NodeHealth::Alive;
    }

    /// Advance to `now` and return the transitions that fired this tick,
    /// in node order.
    pub fn tick(&mut self, now: u64) -> Vec<(usize, NodeHealth)> {
        let mut transitions = Vec::new();
        for k in 0..self.health.len() {
            let silent = now.saturating_sub(self.last_seen[k]);
            let next = match self.health[k] {
                NodeHealth::Dead => continue,
                _ if silent >= self.cfg.dead_after => NodeHealth::Dead,
                _ if silent >= self.cfg.suspect_after => NodeHealth::Suspect,
                _ => NodeHealth::Alive,
            };
            if next != self.health[k] {
                self.health[k] = next;
                transitions.push((k, next));
            }
        }
        transitions
    }

    /// Current health of `node`.
    pub fn health(&self, node: usize) -> NodeHealth {
        self.health[node]
    }

    /// Last tick `node` was heard from.
    pub fn last_seen(&self, node: usize) -> u64 {
        self.last_seen[node]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det() -> FailureDetector {
        FailureDetector::new(2, DetectorConfig { suspect_after: 3, dead_after: 6 })
    }

    #[test]
    fn silent_node_walks_suspect_then_dead() {
        let mut d = det();
        for t in 1..=10 {
            d.observe_heartbeat(0, t); // node 0 keeps beaconing; node 1 is silent
            let tr = d.tick(t);
            match t {
                3 => assert_eq!(tr, vec![(1, NodeHealth::Suspect)]),
                6 => assert_eq!(tr, vec![(1, NodeHealth::Dead)]),
                _ => assert!(tr.is_empty(), "unexpected transition at tick {t}: {tr:?}"),
            }
        }
        assert_eq!(d.health(0), NodeHealth::Alive);
        assert_eq!(d.health(1), NodeHealth::Dead);
    }

    #[test]
    fn suspect_recovers_on_heartbeat() {
        let mut d = det();
        d.observe_heartbeat(0, 4);
        assert_eq!(d.tick(4), vec![(1, NodeHealth::Suspect)]);
        d.observe_heartbeat(1, 5); // it was just slow
        d.observe_heartbeat(0, 5);
        assert!(d.tick(5).is_empty());
        assert_eq!(d.health(1), NodeHealth::Alive);
    }

    #[test]
    fn dead_is_sticky_against_zombie_heartbeats() {
        let mut d = det();
        d.observe_heartbeat(0, 6);
        let tr = d.tick(6);
        assert!(tr.contains(&(1, NodeHealth::Dead)));
        d.observe_heartbeat(1, 7); // partition healed, node 1 still running
        d.observe_heartbeat(0, 7);
        assert!(d.tick(7).is_empty());
        assert_eq!(d.health(1), NodeHealth::Dead, "failover already ran; no resurrection");
    }

    #[test]
    fn dead_fires_exactly_once() {
        let mut d = det();
        for t in 1..=20 {
            d.observe_heartbeat(0, t);
            let dead: Vec<_> = d.tick(t).into_iter().filter(|&(_, h)| h == NodeHealth::Dead).collect();
            if t == 6 {
                assert_eq!(dead, vec![(1, NodeHealth::Dead)]);
            } else {
                assert!(dead.is_empty());
            }
        }
    }
}
