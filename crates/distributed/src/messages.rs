//! Records exchanged between ranks.
//!
//! All messages are plain-old-data structs. The round's records
//! ([`VertexUpdate`], [`ModuleInfoMsg`], [`DelegateProposal`],
//! [`ModuleContribution`]) never cross the wire as structs: how they are
//! laid out in a packet is decided in [`crate::codec`] alone, and the
//! communicator only ever sees the encoded bytes. The merge records
//! ([`MergedArc`], [`MergedFlow`]) travel field by field through
//! [`infomap_mpisim::WirePayload`].

/// The paper's List 1 message interface: the full information of one
/// module, plus the duplicate-suppression flag of Algorithm 3.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModuleInfoMsg {
    /// Module ID (`modID`).
    pub mod_id: u64,
    /// Sum of visit probability of the module (`sumPr`).
    pub flow: f64,
    /// Sum of exit probability of the module (`exitPr`).
    pub exit: f64,
    /// Vertex number in this module (`numMembers`).
    pub members: u32,
    /// Algorithm 3's duplicate-suppression flag (`isSent`) for infos that
    /// travel alongside boundary vertices. Only the owner publish sends
    /// infos here, each module once per destination, so it is always
    /// false; the wire format still carries it.
    pub is_sent: bool,
}

/// Boundary community-ID update: vertex → current module.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VertexUpdate {
    pub vertex: u32,
    pub module: u64,
}

/// A rank's best-local-δL proposal for one delegate (paper Algorithm 2
/// line 4). Algorithm 3 (lines 23–24) has it carry the target module's
/// info; here the round's owner reduction hands every rank that holds a
/// copy of the winner the target's totals, so a proposal is ids and δL
/// only.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DelegateProposal {
    pub delegate: u32,
    pub to_module: u64,
    pub delta: f64,
    pub proposer: u32,
}

/// The change of a rank's local contribution to a module's statistics
/// since the contribution it last shipped (zero before the first), added
/// at the module's owner rank. The owner adds exactly the operands it
/// would subtract from a stored copy, so its totals carry the same bits.
/// A first record subscribes the rank; a record with `retract == true`
/// withdraws its whole contribution (the deltas are its negation) and its
/// subscription (the rank no longer touches the module).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModuleContribution {
    pub mod_id: u64,
    pub flow: f64,
    pub exit: f64,
    /// Wrapping difference of the member counts.
    pub members: i32,
    pub retract: bool,
}

/// One aggregated inter-module arc of the merged graph, routed to the
/// new owner of `src` (paper §3.5).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MergedArc {
    pub src: u32,
    pub dst: u32,
    pub weight: f64,
}

/// Flow (visit rate) of one merged vertex, routed to its new owner.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MergedFlow {
    pub vertex: u32,
    pub flow: f64,
}

/// Field-wise [`WirePayload`] impls so the merge records can cross a
/// byte-level transport backend. The encoding is the packed field
/// sequence in declaration order.
macro_rules! wire_payload_fields {
    ($t:ty { $($field:ident),+ $(,)? }) => {
        impl infomap_mpisim::WirePayload for $t {
            fn encode_into(&self, out: &mut Vec<u8>) {
                $(infomap_mpisim::WirePayload::encode_into(&self.$field, out);)+
            }

            fn decode_from(
                buf: &mut &[u8],
            ) -> Result<Self, infomap_mpisim::WireDecodeError> {
                $(let $field = infomap_mpisim::WirePayload::decode_from(buf)?;)+
                Ok(Self { $($field),+ })
            }
        }
    };
}

wire_payload_fields!(MergedArc { src, dst, weight });
wire_payload_fields!(MergedFlow { vertex, flow });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_info_is_compact() {
        // List 1 declares u64 + 2×double + int + bool; allow padding to 32.
        assert!(std::mem::size_of::<ModuleInfoMsg>() <= 32);
    }

    #[test]
    fn messages_are_copy_pod() {
        fn assert_pod<T: Copy + Send + 'static>() {}
        assert_pod::<ModuleInfoMsg>();
        assert_pod::<VertexUpdate>();
        assert_pod::<DelegateProposal>();
        assert_pod::<ModuleContribution>();
        assert_pod::<MergedArc>();
        assert_pod::<MergedFlow>();
    }
}
