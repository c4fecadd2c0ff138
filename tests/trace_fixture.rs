//! Recorded-trace fixture: the paper's algorithms must keep returning the
//! recorded ids, distance bits and node accesses, on the buffered arena
//! cursor and on the packed cursor alike, and the network algorithms their
//! recorded expansion counters. The fixture files were generated once and
//! are compared line by line; there is no regeneration switch.

mod support;

use support::{
    assert_matches_fixture, euclidean_traces, network_traces, EUCLIDEAN_FIXTURE, NETWORK_FIXTURE,
};

#[test]
fn euclidean_traces_match_fixture() {
    assert_matches_fixture("euclidean", &euclidean_traces(), EUCLIDEAN_FIXTURE);
}

#[test]
fn network_traces_match_fixture() {
    assert_matches_fixture("network", &network_traces(), NETWORK_FIXTURE);
}
