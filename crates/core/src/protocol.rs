//! Wire-level protocol messages between the PIR client and servers.
//!
//! The protocol is deliberately minimal, matching the paper's setting: the
//! client uploads one DPF key per server per query and each server returns
//! one record-sized subresult. On a socket these values travel in the
//! frames of [`crate::wire`], whose encoding is hand-rolled there.

use impir_dpf::{DpfKey, PartyId};

use crate::error::PirError;

/// The query share sent to one server: a DPF key plus a client-chosen query
/// identifier used to match responses in batched processing.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryShare {
    /// Client-chosen identifier, echoed back in the response.
    pub query_id: u64,
    /// The DPF key for this server.
    pub key: DpfKey,
}

impl QueryShare {
    /// Creates a query share.
    #[must_use]
    pub fn new(query_id: u64, key: DpfKey) -> Self {
        QueryShare { query_id, key }
    }

    /// Which server this share is addressed to.
    #[must_use]
    pub fn party(&self) -> PartyId {
        self.key.party()
    }

    /// Upload size of this share in bytes, as actually serialized inside a
    /// [`crate::wire::Frame::QueryBatch`] (query id, key-length prefix and
    /// key bytes) — so reported upload costs match what a socket carries.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        crate::wire::share_wire_bytes(self)
    }
}

/// A server's answer to one query share: its XOR subresult over the
/// database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerResponse {
    /// The query identifier echoed from the share.
    pub query_id: u64,
    /// Which server produced the response.
    pub party: PartyId,
    /// The record-sized XOR subresult `r`.
    pub payload: Vec<u8>,
}

impl ServerResponse {
    /// Creates a response.
    #[must_use]
    pub fn new(query_id: u64, party: PartyId, payload: Vec<u8>) -> Self {
        ServerResponse {
            query_id,
            party,
            payload,
        }
    }

    /// Download size of this response in bytes, as actually serialized
    /// inside a [`crate::wire::Frame::ResponseBatch`] (query id, party
    /// byte, payload-length prefix and payload).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        crate::wire::response_wire_bytes(self)
    }
}

/// Combines the two servers' responses into the requested record
/// (`D[i] = r1 ⊕ r2`, Algorithm 1 step ➐).
///
/// # Errors
///
/// Combining is only meaningful for responses that belong together, and a
/// networked deployment can deliver ones that don't (crossed sessions, a
/// buggy or malicious server). The mismatches are rejected instead of
/// silently XOR-ing garbage:
///
/// * [`PirError::ResponseMismatch`] if the responses carry different query
///   ids;
/// * [`PirError::Protocol`] if both responses claim the **same** party —
///   two subresults from one server reconstruct nothing;
/// * [`PirError::RecordSizeMismatch`] if their payloads have different
///   lengths.
pub fn combine_responses(
    first: &ServerResponse,
    second: &ServerResponse,
) -> Result<Vec<u8>, PirError> {
    if first.query_id != second.query_id {
        return Err(PirError::ResponseMismatch {
            first: first.query_id,
            second: second.query_id,
        });
    }
    if first.party == second.party {
        return Err(PirError::Protocol {
            reason: format!(
                "both responses to query {} claim party {:?}; reconstruction needs one \
                 subresult from each server",
                first.query_id, first.party
            ),
        });
    }
    if first.payload.len() != second.payload.len() {
        return Err(PirError::RecordSizeMismatch {
            expected: first.payload.len(),
            actual: second.payload.len(),
        });
    }
    Ok(first
        .payload
        .iter()
        .zip(&second.payload)
        .map(|(a, b)| a ^ b)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use impir_dpf::gen::generate_keys;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn share() -> QueryShare {
        let mut rng = StdRng::seed_from_u64(0);
        let (k1, _) = generate_keys(8, 3, &mut rng).unwrap();
        QueryShare::new(42, k1)
    }

    #[test]
    fn share_size_is_the_serialized_wire_size() {
        let share = share();
        // query id + key-length prefix + key bytes, as a QueryBatch frame
        // lays the share out on the wire.
        assert_eq!(share.size_bytes(), 8 + 4 + share.key.size_bytes());
        assert_eq!(share.party(), PartyId::Server1);
    }

    #[test]
    fn combine_xors_payloads() {
        let r1 = ServerResponse::new(1, PartyId::Server1, vec![0b1100, 0xff]);
        let r2 = ServerResponse::new(1, PartyId::Server2, vec![0b1010, 0x0f]);
        assert_eq!(combine_responses(&r1, &r2).unwrap(), vec![0b0110, 0xf0]);
    }

    #[test]
    fn combine_rejects_mismatched_queries() {
        let r1 = ServerResponse::new(1, PartyId::Server1, vec![0]);
        let r2 = ServerResponse::new(2, PartyId::Server2, vec![0]);
        assert!(matches!(
            combine_responses(&r1, &r2),
            Err(PirError::ResponseMismatch {
                first: 1,
                second: 2
            })
        ));
    }

    #[test]
    fn combine_rejects_mismatched_lengths() {
        let r1 = ServerResponse::new(1, PartyId::Server1, vec![0, 1]);
        let r2 = ServerResponse::new(1, PartyId::Server2, vec![0]);
        assert!(matches!(
            combine_responses(&r1, &r2),
            Err(PirError::RecordSizeMismatch { .. })
        ));
    }

    #[test]
    fn combine_rejects_same_party_responses() {
        let r1 = ServerResponse::new(3, PartyId::Server1, vec![1, 2]);
        let r2 = ServerResponse::new(3, PartyId::Server1, vec![3, 4]);
        assert!(matches!(
            combine_responses(&r1, &r2),
            Err(PirError::Protocol { .. })
        ));
    }

    #[test]
    fn response_size_is_the_serialized_wire_size() {
        // query id (8) + party (1) + payload-length prefix (4) + payload.
        let response = ServerResponse::new(7, PartyId::Server2, vec![0u8; 32]);
        assert_eq!(response.size_bytes(), 45);
    }
}
