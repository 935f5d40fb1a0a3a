//! Fuzzing the wire decoders: arbitrary bytes, and payloads assembled
//! from the grammar's own pieces, go through [`frame::decode_request`],
//! [`frame::decode_write`] and [`frame::decode_reply`]. Every payload a
//! peer can send gets a value or an error message back, never a panic;
//! a request the client encoder writes decodes to itself.

use proptest::prelude::*;
use qarith_net::frame::{self, Request};

/// Pieces of the request, write and reply grammars (magic lines,
/// options, opcodes, sort-tagged values, reply fields), separators, and
/// values that are out of range or malformed for their slot, separated
/// by `|`.
const PIECES: &str = "qarith-query/1|qarith-write/1|qarith-reply/1| | |\t|\n|\n|=|=>|ok|err|\
    kind=sql|kind=write|kind=|epsilon=|ops=|answers=|epoch=|db=|rid=|plan_cached=|applied=|\
    noops=|inv_plans=|ins |del |upd |Products|Market|z:|s:|q:|B:|N:|1|-1|0|7/2|1/0|/|-0|NaN|\
    inf|1e309|fp |a |nu=|bits=|samples=|dim=|flags=|c|r|-|tuple=|(1, é)|stats |measured=|\
    cache_hits=|0123456789abcdef|ffff|18446744073709551616|SELECT P.id FROM Products P";

fn pieces() -> Vec<&'static str> {
    PIECES.split('|').collect()
}

fn assemble(chosen: &[usize]) -> String {
    let pieces = pieces();
    chosen.iter().map(|&p| pieces[p]).collect()
}

fn decode_all(payload: &[u8]) {
    let _ = frame::decode_request(payload);
    let _ = frame::decode_write(payload);
    let _ = frame::decode_reply(payload);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Arbitrary bytes, mostly not UTF-8 and with no magic line.
    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(bytes in prop::collection::vec(0u8..=255, 0..512)) {
        decode_all(&bytes);
    }

    /// Payloads built from grammar pieces behind one of the three magic
    /// words (or none), which reach past the magic line into option,
    /// opcode, value and reply-line parsing; half of them end in
    /// arbitrary bytes.
    #[test]
    fn grammar_shaped_payloads_never_panic_a_decoder(
        magic in 0..4usize,
        pieces in prop::collection::vec(0..pieces().len(), 0..64),
        tail in prop::option::of(prop::collection::vec(0u8..=255, 1..16)),
    ) {
        let magic = [frame::REQUEST_MAGIC, frame::WRITE_MAGIC, frame::REPLY_MAGIC, ""][magic];
        let mut payload = format!("{magic}{}", assemble(&pieces)).into_bytes();
        payload.extend(tail.unwrap_or_default());
        decode_all(&payload);
    }

    /// A request the client encodes decodes to itself, with or without
    /// an `epsilon=` option.
    #[test]
    fn requests_round_trip(
        pieces in prop::collection::vec(0..pieces().len(), 1..32),
        epsilon in prop::option::of(1e-9..10.0f64),
    ) {
        let sql = format!("SELECT {}", assemble(&pieces));
        let request = Request { epsilon, sql };
        let decoded = frame::decode_request(frame::encode_request(&request).as_bytes());
        prop_assert_eq!(decoded, Ok(request));
    }
}
