//! FIXTURE (linted as crate `css-health`, role Production): the ops
//! plane deliberately naming a confined detail-payload type, waived
//! inline. The finding must land in `waived`, not `findings`.

pub fn frame_cannot_carry_details(frame: &Frame) -> bool {
    // css-lint: allow(detail-confinement): compile-time negative assertion — proves Frame has no detail-payload variant
    let witness: Option<DetailMessage> = None;
    witness.is_none() && frame.kind() != "detail"
}
