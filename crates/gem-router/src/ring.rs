//! The consistent-hash ring that partitions model handles across replicas.
//!
//! Every replica contributes `vnodes` points to a 64-bit ring (FNV-1a over
//! `replica-address#vnode`, domain-separated from handle hashes); a handle routes to
//! the first point clockwise from its own hash. The construction is deterministic —
//! two routers (or one router across restarts) built from the same membership route
//! every handle identically, with no state to persist or exchange — and membership
//! changes move only the keys between the affected points: adding or removing one of
//! N replicas relocates ~1/N of the handles, never reshuffles everything.
//!
//! Liveness is *not* baked into the ring: routing takes an `alive` predicate and
//! walks clockwise past dead replicas, so a fail-over route ("next live node") and
//! the replication target ("first live node that is not the owner") fall out of the
//! same walk without rebuilding anything.

use gem_store::fingerprint::Fnv1a;

/// Finalizing avalanche (the splitmix64 mixer) applied on top of FNV-1a. Ring order
/// is decided by the *high* bits of the point hash, which raw FNV-1a mixes poorly for
/// short, near-sequential inputs like `addr#vnode` — without this, replica shares can
/// skew by an order of magnitude.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58476d1ce4e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d049bb133111eb);
    h ^ (h >> 31)
}

/// A deterministic consistent-hash ring over replica addresses. See the module docs.
#[derive(Debug, Clone)]
pub struct HashRing {
    vnodes: usize,
    nodes: Vec<String>,
    /// `(point hash, index into nodes)`, sorted by hash (ties broken by address so
    /// construction order never matters).
    points: Vec<(u64, usize)>,
}

/// Default virtual nodes per replica: enough to keep the share spread tight (the
/// distribution test below bounds it) while membership changes stay cheap.
pub const DEFAULT_VNODES: usize = 64;

impl HashRing {
    /// Build the ring for `nodes` with `vnodes` points per node (use
    /// [`DEFAULT_VNODES`] unless tuning). Duplicate addresses are collapsed.
    pub fn build(nodes: &[String], vnodes: usize) -> Self {
        let vnodes = vnodes.max(1);
        let mut unique: Vec<String> = Vec::new();
        for node in nodes {
            if !unique.iter().any(|n| n == node) {
                unique.push(node.clone());
            }
        }
        let mut points = Vec::with_capacity(unique.len() * vnodes);
        for (index, node) in unique.iter().enumerate() {
            for vnode in 0..vnodes {
                points.push((Self::point_hash(node, vnode), index));
            }
        }
        points.sort_by(|a, b| {
            let node_of = |p: &(u64, usize)| unique.get(p.1).map(String::as_str);
            (a.0, node_of(a)).cmp(&(b.0, node_of(b)))
        });
        HashRing {
            vnodes,
            nodes: unique,
            points,
        }
    }

    /// The replica addresses on the ring, in insertion order.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Virtual nodes per replica.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// Hash a handle's hex rendering onto the ring. Domain-separated from point
    /// hashes so a handle can never collide with a vnode by construction.
    fn handle_hash(handle: &str) -> u64 {
        let mut h = Fnv1a::new();
        h.write(b"gem-ring-key:");
        h.write(handle.as_bytes());
        mix(h.finish())
    }

    fn point_hash(node: &str, vnode: usize) -> u64 {
        let mut h = Fnv1a::new();
        h.write(b"gem-ring-node:");
        h.write(node.as_bytes());
        h.write_u64(vnode as u64);
        mix(h.finish())
    }

    /// The replica owning `handle` when every node is considered live.
    pub fn owner(&self, handle: &str) -> Option<&str> {
        self.route(handle, |_| true)
    }

    /// The first *live* replica clockwise from `handle`'s ring position — the owner
    /// when it is live, its fail-over target otherwise. `None` when nothing is live.
    pub fn route<F: Fn(&str) -> bool>(&self, handle: &str, alive: F) -> Option<&str> {
        self.walk(Self::handle_hash(handle), alive, None)
    }

    /// [`HashRing::route`] from a precomputed hash (for routes keyed by something
    /// other than a handle, e.g. an `EmbedCorpus` corpus fingerprint).
    pub fn route_hash<F: Fn(&str) -> bool>(&self, hash: u64, alive: F) -> Option<&str> {
        self.walk(hash, alive, None)
    }

    /// The first live replica clockwise from `handle` that is **not** `exclude`: the
    /// write-through replication target for a model held by `exclude`, and — by the
    /// same walk — exactly the node [`HashRing::route`] answers once `exclude` dies.
    pub fn successor<F: Fn(&str) -> bool>(
        &self,
        handle: &str,
        exclude: &str,
        alive: F,
    ) -> Option<&str> {
        self.walk(Self::handle_hash(handle), alive, Some(exclude))
    }

    fn walk<F: Fn(&str) -> bool>(
        &self,
        hash: u64,
        alive: F,
        exclude: Option<&str>,
    ) -> Option<&str> {
        if self.points.is_empty() {
            return None;
        }
        let start = self.points.partition_point(|(point, _)| *point < hash);
        let clockwise = self
            .points
            .iter()
            .skip(start)
            .chain(self.points.iter().take(start));
        for (_, index) in clockwise {
            let Some(node) = self.nodes.get(*index) else {
                continue;
            };
            if exclude.is_some_and(|e| e == node) {
                continue;
            }
            if alive(node) {
                return Some(node);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_store::ModelKey;

    fn nodes(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:7878")).collect()
    }

    /// ≥1k synthetic handles in the exact wire format (`<corpus:016x>-<config:016x>`),
    /// spread via the same FNV construction real fingerprints use.
    fn synthetic_handles(count: usize) -> Vec<String> {
        (0..count)
            .map(|i| {
                let mut a = Fnv1a::new();
                a.write(b"synthetic-corpus");
                a.write_u64(i as u64);
                let mut b = Fnv1a::new();
                b.write(b"synthetic-config");
                b.write_u64(i as u64);
                ModelKey {
                    corpus: a.finish(),
                    config: b.finish(),
                }
                .to_hex()
            })
            .collect()
    }

    #[test]
    fn ring_is_deterministic_across_rebuilds_and_node_order() {
        let handles = synthetic_handles(1000);
        let ring = HashRing::build(&nodes(5), DEFAULT_VNODES);
        // "Across process restarts": a freshly built ring from the same membership
        // (even listed in a different order) routes every handle identically — the
        // construction has no hidden state, clocks, or RNG.
        let rebuilt = HashRing::build(&nodes(5), DEFAULT_VNODES);
        let mut reversed_nodes = nodes(5);
        reversed_nodes.reverse();
        let reordered = HashRing::build(&reversed_nodes, DEFAULT_VNODES);
        for handle in &handles {
            assert_eq!(ring.owner(handle), rebuilt.owner(handle));
            assert_eq!(ring.owner(handle), reordered.owner(handle));
        }
    }

    #[test]
    fn joining_a_replica_moves_a_bounded_fraction_of_handles() {
        let handles = synthetic_handles(2000);
        let before = HashRing::build(&nodes(4), DEFAULT_VNODES);
        let after = HashRing::build(&nodes(5), DEFAULT_VNODES);
        let moved = handles
            .iter()
            .filter(|h| before.owner(h) != after.owner(h))
            .count();
        // Theory: joining the 5th replica moves ~1/5 of the keys (those it now owns).
        // Allow vnode-placement slack but stay far below a reshuffle.
        let expected = handles.len() / 5;
        assert!(
            moved <= expected * 2,
            "join moved {moved} of {} handles (expected ~{expected})",
            handles.len()
        );
        assert!(moved > 0, "a join that moves nothing shards nothing");
        // Every moved handle moved TO the joining replica — a join never shuffles
        // keys between the old replicas.
        let joiner = "10.0.0.4:7878".to_string();
        for handle in &handles {
            if before.owner(handle) != after.owner(handle) {
                assert_eq!(after.owner(handle), Some(joiner.as_str()));
            }
        }
    }

    #[test]
    fn leaving_a_replica_moves_only_its_own_handles() {
        let handles = synthetic_handles(2000);
        let before = HashRing::build(&nodes(5), DEFAULT_VNODES);
        let after = HashRing::build(&nodes(4), DEFAULT_VNODES);
        let leaver = "10.0.0.4:7878".to_string();
        let mut moved = 0usize;
        for handle in &handles {
            if before.owner(handle) == Some(leaver.as_str()) {
                // Its keys must land somewhere among the survivors…
                assert_ne!(after.owner(handle), Some(leaver.as_str()));
                moved += 1;
            } else {
                // …and nobody else's keys move at all.
                assert_eq!(before.owner(handle), after.owner(handle));
            }
        }
        let expected = handles.len() / 5;
        assert!(
            moved <= expected * 2,
            "leave moved {moved} of {} handles (expected ~{expected})",
            handles.len()
        );
    }

    #[test]
    fn fail_over_route_equals_the_replication_successor() {
        // The invariant the write-through replication relies on: for any handle, the
        // node `route` picks once the owner is dead is exactly the `successor` the
        // snapshot was shipped to while the owner was alive.
        let ring = HashRing::build(&nodes(5), DEFAULT_VNODES);
        for handle in synthetic_handles(500) {
            let owner = ring.owner(&handle).unwrap().to_string();
            let target = ring.successor(&handle, &owner, |_| true).map(str::to_owned);
            let failed_over = ring.route(&handle, |n| n != owner).map(str::to_owned);
            assert_eq!(target, failed_over, "handle {handle}");
            assert_ne!(target.as_deref(), Some(owner.as_str()));
        }
    }

    #[test]
    fn distribution_over_synthetic_fingerprints_is_even() {
        let handles = synthetic_handles(1500);
        let members = nodes(4);
        let ring = HashRing::build(&members, DEFAULT_VNODES);
        let mut counts = vec![0usize; members.len()];
        for handle in &handles {
            let owner = ring.owner(handle).unwrap();
            let at = members.iter().position(|n| n == owner).unwrap();
            counts[at] += 1;
        }
        let mean = handles.len() / members.len();
        for (node, count) in members.iter().zip(&counts) {
            assert!(
                *count * 2 > mean && *count < mean * 2,
                "{node} owns {count} of {} handles (mean {mean}) — too skewed",
                handles.len()
            );
        }
    }

    #[test]
    fn routing_skips_dead_nodes_and_empty_rings_route_nowhere() {
        let members = nodes(3);
        let ring = HashRing::build(&members, DEFAULT_VNODES);
        let handle = synthetic_handles(1).pop().unwrap();
        let owner = ring.owner(&handle).unwrap().to_string();
        let rerouted = ring.route(&handle, |n| n != owner).unwrap().to_string();
        assert_ne!(rerouted, owner);
        assert!(ring.route(&handle, |_| false).is_none(), "nothing live");
        let empty = HashRing::build(&[], DEFAULT_VNODES);
        assert!(empty.owner(&handle).is_none());
    }

    #[test]
    fn duplicate_nodes_collapse() {
        let mut twice = nodes(3);
        twice.extend(nodes(3));
        let ring = HashRing::build(&twice, DEFAULT_VNODES);
        assert_eq!(ring.nodes().len(), 3);
    }
}
