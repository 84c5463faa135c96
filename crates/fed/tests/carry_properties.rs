//! Property tests for the runtime's in-flight queue: however carries and
//! rounds interleave, every carried update arrives exactly once, within
//! the cap, at its clamped staleness — and its sends land on the ledger in
//! that same round.

use proptest::prelude::*;

use lumos_common::rng::Xoshiro256pp;
use lumos_fed::{CostModel, Runtime, SimNetwork};
use lumos_sim::STALENESS_CAP;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Conservation: no update is lost, none outlives [`STALENESS_CAP`],
    /// and each round's ledger window holds exactly the sends of the
    /// updates that arrived in it.
    #[test]
    fn carried_queue_loses_no_update(
        seed in any::<u64>(), n in 1usize..16, rounds in 1usize..24
    ) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut rt = Runtime::new(n, CostModel::default());
        let nodes = vec![1usize; n];
        // Per carry round and clamped staleness, what is due that many
        // rounds on: device `d`'s update carries `d + 1` sends.
        let horizon = rounds + STALENESS_CAP as usize + 1;
        let mut due = vec![Vec::<(u32, u32)>::new(); horizon];
        let mut carried = 0usize;
        let mut arrived = 0usize;
        for round in 0..horizon {
            rt.begin_epoch();
            let landed = rt.advance_carried();
            let messages = rt.end_epoch(&nodes, 2, None).total_messages;
            let mut want = due[round].clone();
            want.sort_unstable();
            let mut got = landed.clone();
            got.sort_unstable();
            prop_assert_eq!(&got, &want, "round {}", round);
            let sends: u64 = landed.iter().map(|&(d, _)| u64::from(d) + 1).sum();
            prop_assert_eq!(messages, sends, "an update's sends land with it");
            arrived += landed.len();
            if round >= rounds {
                continue;
            }
            for _ in 0..rng.next_below(4) {
                let d = rng.next_below(n as u64) as u32;
                // Deliberately overshoot the cap sometimes: the queue must
                // clamp, never defer unboundedly.
                let s = rng.next_below(2 * u64::from(STALENESS_CAP)) as u32;
                rt.carry(s, vec![d], vec![(d, SimNetwork::SERVER, 8); d as usize + 1]);
                carried += 1;
                let s = s.clamp(1, STALENESS_CAP);
                due[round + s as usize].push((d, s));
            }
            prop_assert_eq!(rt.in_flight(), carried - arrived);
        }
        prop_assert_eq!(rt.in_flight(), 0, "an update outlived STALENESS_CAP");
        prop_assert_eq!(arrived, carried, "every carried update arrives exactly once");
    }
}
