//! FIXTURE (linted as crate `css-bus`, role Production): names a
//! confined detail-payload type in a middle-layer crate. Must fire
//! `detail-confinement` once (the signature; rustc holds `DetailStore`).

pub fn forward(msg: DetailMessage) {
    let store = DetailStore::default();
    store.put(msg);
}
