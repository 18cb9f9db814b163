//! Hostile input for the `boomflow serve` wire protocol: whatever bytes
//! arrive — random, or a valid message with a flipped bit or cut short —
//! both decoders return `Ok` or `Err` and never panic.

use boomflow::{
    decode_client, decode_server, encode_client, encode_server, CampaignRequest, ClientMsg,
    Request, ServerMsg, SweepRequest, PROTOCOL_VERSION,
};
use proptest::prelude::*;
use rv_workloads::Scale;

/// One encoded sample of every message kind of both directions, tagged
/// with whether it is a client payload.
fn sample_payloads() -> Vec<(bool, Vec<u8>)> {
    let campaign = CampaignRequest {
        workloads: "bitcount,sha".to_string(),
        config: "all".to_string(),
        scale: Scale::Test,
        warmup: 500,
        retries: 3,
        batch_lanes: 2,
        idle_skip: true,
    };
    let sweep = SweepRequest {
        preset: "smoke16".to_string(),
        base: "medium".to_string(),
        workloads: "sha".to_string(),
        scale: Scale::Test,
        warmup: 500,
        max_rungs: 2,
        rung0_points: 1,
        rung0_shift: 3,
        epsilon: 0.05,
        epsilon_decay: 0.5,
        exhaustive: false,
        batch_lanes: 4,
    };
    let client = [
        ClientMsg::Submit(Request::Campaign(campaign)),
        ClientMsg::Submit(Request::Sweep(sweep)),
        ClientMsg::Attach(0xdead_beef_0102_0304),
        ClientMsg::Shutdown,
    ];
    let server = [
        ServerMsg::Admitted { id: 7, replayed: 3, active: 2 },
        ServerMsg::Progress { id: 7, done: 5, total: 12 },
        ServerMsg::Done {
            id: 7,
            ok: false,
            report: b"cells 1\n".to_vec(),
            summary: "Stage summary".to_string(),
            extra: "frontier Sha 1\n".to_string(),
        },
        ServerMsg::Rejected { reason: "queue full".to_string() },
        ServerMsg::Bye { active: 0 },
    ];
    client
        .iter()
        .map(|m| (true, encode_client(m)))
        .chain(server.iter().map(|m| (false, encode_server(m))))
        .collect()
}

/// Decodes `payload` in the given direction and reports whether it
/// decoded. Returning at all is the property; a panic fails the test.
fn decodes(client: bool, payload: &[u8]) -> bool {
    if client {
        decode_client(payload).is_ok()
    } else {
        decode_server(payload).is_ok()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Arbitrary bytes never panic either decoder — neither raw, nor
    /// behind a valid version word and a tag near the real ones, where
    /// the body decoders start reading lengths and strings.
    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(
        body in proptest::collection::vec(any::<u8>(), 0..96),
        tag in 0u8..0x20,
    ) {
        decodes(true, &body);
        decodes(false, &body);
        let mut client = PROTOCOL_VERSION.to_le_bytes().to_vec();
        client.push(tag);
        client.extend_from_slice(&body);
        decodes(true, &client);
        let mut server = vec![tag | 0x10];
        server.extend_from_slice(&body);
        decodes(false, &server);
    }

    /// A valid message with one flipped bit decodes to `Ok` or `Err`; one
    /// cut short anywhere is always an error.
    #[test]
    fn decoders_never_panic_on_damaged_messages(
        which in 0usize..9,
        at in any::<u64>(),
        bit in 0u8..8,
        cut in any::<bool>(),
    ) {
        let samples = sample_payloads();
        let (client, mut payload) = samples[which % samples.len()].clone();
        let at = (at % payload.len() as u64) as usize;
        if cut {
            payload.truncate(at);
            prop_assert!(!decodes(client, &payload), "a truncated message decoded");
        } else {
            payload[at] ^= 1 << bit;
            decodes(client, &payload);
        }
    }
}
