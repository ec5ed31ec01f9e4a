//! The dynamic on-chip network.
//!
//! Raw's dynamic networks are dimension-ordered wormhole-routed meshes with
//! one-cycle-per-hop wire delay. The model here charges
//! `inject + hops + payload serialization + eject` per message, keeps
//! per-(source, destination) ordering, and serializes delivery at each
//! destination port — so a shared resource like the L2 code-cache manager
//! tile becomes a genuine queueing bottleneck when many translation slaves
//! hammer it (the congestion the paper observes on vpr/gcc/crafty, §4.3).

use std::collections::HashMap;

use vta_sim::{Cycle, EventQueue};

use crate::grid::TileId;

/// Cycles to inject a message header into the network.
pub const INJECT_COST: u64 = 1;
/// Cycles per network hop.
pub const HOP_COST: u64 = 1;
/// Cycles to eject a message at the destination.
pub const EJECT_COST: u64 = 1;

/// A dynamic network carrying typed messages between tiles.
///
/// # Examples
///
/// ```
/// use vta_raw::{Network, TileId};
/// use vta_sim::Cycle;
///
/// let mut net = Network::new(4, 4);
/// let t0 = TileId::new(0, 0);
/// let t1 = TileId::new(1, 0);
/// let arrive = net.send(Cycle(0), t0, t1, 1, 7u32);
/// assert_eq!(net.recv(t1, Cycle(0)), None);
/// assert_eq!(net.recv(t1, arrive), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct Network<T> {
    width: u8,
    height: u8,
    inboxes: HashMap<TileId, EventQueue<T>>,
    /// Per-destination port: when the ejection port is next free.
    port_free: HashMap<TileId, Cycle>,
    /// Per (src,dst) pair: last arrival, to preserve point-to-point order.
    pair_last: HashMap<(TileId, TileId), Cycle>,
    messages: u64,
    total_hops: u64,
}

impl<T> Network<T> {
    /// Creates the network for a `width`×`height` grid.
    pub fn new(width: u8, height: u8) -> Self {
        Network {
            width,
            height,
            inboxes: HashMap::new(),
            port_free: HashMap::new(),
            pair_last: HashMap::new(),
            messages: 0,
            total_hops: 0,
        }
    }

    /// Sends `payload` of `words` 32-bit words from `from` to `to` at
    /// `now`; returns the arrival cycle.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is outside the grid.
    pub fn send(&mut self, now: Cycle, from: TileId, to: TileId, words: u32, payload: T) -> Cycle {
        let arrival = self.route(now, from, to, words);
        self.inboxes
            .entry(to)
            .or_default()
            .schedule(arrival, payload);
        arrival
    }

    /// Like [`send`], but also records the message in `tracer`.
    ///
    /// [`send`]: Network::send
    pub fn send_traced(
        &mut self,
        now: Cycle,
        from: TileId,
        to: TileId,
        words: u32,
        payload: T,
        tracer: &mut vta_sim::Tracer,
    ) -> Cycle {
        let arrival = self.send(now, from, to, words, payload);
        tracer.net_msg(
            now,
            arrival - now,
            from.into(),
            to.into(),
            words,
            from.hops_to(to) as u8,
        );
        arrival
    }

    /// Computes the arrival time of a message *without* enqueueing a
    /// payload — for synchronous request/reply modelling where the caller
    /// blocks on the result anyway. Contention state (ejection ports,
    /// point-to-point ordering) is updated exactly as for [`send`], but no
    /// message is ever scheduled, so pending payloads from earlier `send`s
    /// are untouched.
    ///
    /// [`send`]: Network::send
    pub fn latency(&mut self, now: Cycle, from: TileId, to: TileId, words: u32) -> Cycle {
        self.route(now, from, to, words)
    }

    /// Shared contention bookkeeping for [`send`]/[`latency`]: computes the
    /// arrival cycle and updates port/ordering state, without touching any
    /// inbox.
    ///
    /// [`send`]: Network::send
    /// [`latency`]: Network::latency
    fn route(&mut self, now: Cycle, from: TileId, to: TileId, words: u32) -> Cycle {
        assert!(
            from.x < self.width && from.y < self.height,
            "bad src {from}"
        );
        assert!(to.x < self.width && to.y < self.height, "bad dst {to}");
        let hops = from.hops_to(to) as u64;
        self.messages += 1;
        self.total_hops += hops;

        let wire = INJECT_COST + hops * HOP_COST + words as u64 + EJECT_COST;
        let mut arrival = now + wire;
        // Point-to-point ordering.
        if let Some(&last) = self.pair_last.get(&(from, to)) {
            arrival = arrival.max(last + 1);
        }
        // Destination ejection port serializes message delivery: each
        // message occupies the port for its payload length.
        let free = self.port_free.get(&to).copied().unwrap_or(Cycle::ZERO);
        arrival = arrival.max(free);
        self.port_free.insert(to, arrival + words.max(1) as u64);
        self.pair_last.insert((from, to), arrival);
        arrival
    }

    /// Delivers the earliest message for `at` whose arrival is `<= now`.
    pub fn recv(&mut self, at: TileId, now: Cycle) -> Option<T> {
        self.inboxes.get_mut(&at)?.pop_ready(now)
    }

    /// Arrival cycle of the earliest undelivered message for `at`.
    pub fn next_arrival(&self, at: TileId) -> Option<Cycle> {
        self.inboxes.get(&at)?.next_due()
    }

    /// Number of undelivered messages for `at`.
    pub fn pending(&self, at: TileId) -> usize {
        self.inboxes.get(&at).map_or(0, EventQueue::len)
    }

    /// `(messages sent, total hops traversed)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.messages, self.total_hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: u8, y: u8) -> TileId {
        TileId::new(x, y)
    }

    #[test]
    fn latency_scales_with_distance() {
        let mut net = Network::new(4, 4);
        let near = net.send(Cycle(0), t(0, 0), t(1, 0), 1, ());
        let mut net2 = Network::new(4, 4);
        let far = net2.send(Cycle(0), t(0, 0), t(3, 3), 1, ());
        assert!(far > near, "more hops, later arrival");
        assert_eq!(near, Cycle(INJECT_COST + 1 + 1 + EJECT_COST));
        assert_eq!(far, Cycle(INJECT_COST + 6 + 1 + EJECT_COST));
    }

    #[test]
    fn destination_port_contention_queues() {
        let mut net = Network::new(4, 4);
        let dst = t(2, 2);
        let a = net.send(Cycle(0), t(0, 0), dst, 4, 1u32);
        let b = net.send(Cycle(0), t(3, 3), dst, 4, 2u32);
        assert!(b > a, "second message waits on the ejection port");
        assert!(b - a >= 4, "port busy for the payload length");
    }

    #[test]
    fn point_to_point_order_preserved() {
        let mut net = Network::new(4, 4);
        let (s, d) = (t(0, 0), t(3, 0));
        let a = net.send(Cycle(0), s, d, 1, 'a');
        let b = net.send(Cycle(1), s, d, 1, 'b');
        assert!(b > a);
        assert_eq!(net.recv(d, b), Some('a'));
        assert_eq!(net.recv(d, b), Some('b'));
    }

    #[test]
    fn recv_respects_arrival_time() {
        let mut net = Network::new(4, 4);
        let arrive = net.send(Cycle(10), t(0, 0), t(0, 1), 1, 9u8);
        assert_eq!(net.recv(t(0, 1), Cycle(10)), None);
        assert_eq!(net.next_arrival(t(0, 1)), Some(arrive));
        assert_eq!(net.recv(t(0, 1), arrive), Some(9));
        assert_eq!(net.pending(t(0, 1)), 0);
    }

    #[test]
    #[should_panic(expected = "bad dst")]
    fn out_of_grid_panics() {
        let mut net = Network::new(4, 4);
        net.send(Cycle(0), t(0, 0), t(7, 0), 1, ());
    }

    #[test]
    fn latency_matches_send_without_payload() {
        let mut a: Network<()> = Network::new(4, 4);
        let mut b: Network<()> = Network::new(4, 4);
        let t_a = a.latency(Cycle(5), t(0, 0), t(3, 1), 2);
        let t_b = b.send(Cycle(5), t(0, 0), t(3, 1), 2, ());
        assert_eq!(t_a, t_b, "latency() mirrors send() timing");
        assert_eq!(a.pending(t(3, 1)), 0, "latency() leaves no payload");
    }

    /// Regression test for the ghost-message bug: `latency` used to enqueue
    /// a `T::default()` placeholder and then `pop_ready(arrival)` it — but
    /// `pop_ready` pops the *earliest* due message, so a real pending
    /// payload on the same destination was silently swallowed and the
    /// placeholder delivered in its place.
    #[test]
    fn latency_does_not_drop_pending_payloads() {
        let mut net: Network<u32> = Network::new(4, 4);
        let dst = t(3, 0);
        let arrive = net.send(Cycle(0), t(0, 0), dst, 1, 7);
        // Synchronous probe to the same destination while the real payload
        // is still in flight (its arrival is later, so pop_ready(arrival)
        // on the old code popped the real message).
        let probe = net.latency(Cycle(0), t(1, 0), dst, 1);
        assert!(
            probe >= arrive,
            "probe queues behind the payload's port use"
        );
        assert_eq!(net.pending(dst), 1, "the real payload is still pending");
        assert_eq!(
            net.recv(dst, probe.max(arrive)),
            Some(7),
            "the delivered message is the real payload, not a placeholder"
        );
        assert_eq!(net.recv(dst, probe + 100), None, "and no ghost follows");
    }

    #[test]
    fn send_traced_records_message() {
        let mut net: Network<u8> = Network::new(4, 4);
        let mut tr = vta_sim::Tracer::new(vta_sim::TraceConfig::default());
        let arrive = net.send_traced(Cycle(2), t(0, 0), t(2, 1), 3, 5, &mut tr);
        let links: Vec<_> = tr.links().collect();
        assert_eq!(links.len(), 1);
        let (src, dst, st) = links[0];
        assert_eq!((src.x, src.y), (0, 0));
        assert_eq!((dst.x, dst.y), (2, 1));
        assert_eq!((st.msgs, st.words), (1, 3));
        match tr.events().next() {
            Some(&vta_sim::TraceEvent::NetMsg { ts, dur, hops, .. }) => {
                assert_eq!(ts, 2);
                assert_eq!(dur, (arrive - Cycle(2)));
                assert_eq!(hops, 3);
            }
            other => panic!("expected NetMsg, got {other:?}"),
        }
        // Timing is identical to an untraced send.
        let mut plain: Network<u8> = Network::new(4, 4);
        assert_eq!(plain.send(Cycle(2), t(0, 0), t(2, 1), 3, 5), arrive);
    }

    #[test]
    fn stats_accumulate() {
        let mut net = Network::new(4, 4);
        net.send(Cycle(0), t(0, 0), t(1, 0), 1, ());
        net.send(Cycle(0), t(0, 0), t(3, 3), 1, ());
        assert_eq!(net.stats(), (2, 7));
    }
}
