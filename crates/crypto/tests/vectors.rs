//! Known-answer and determinism tests of the cryptographic substrate:
//! the from-scratch SHA-256 against the NIST FIPS 180-4 vectors, and
//! the hash VRF's determinism/verifiability across seeds.

use tobsvd_crypto::{sha256, Digest, Hasher, Keypair, Vrf};

/// NIST FIPS 180-4 known-answer vectors (plus the RFC 6234 length
/// sweep edge cases around the 55/56-byte padding boundary).
#[test]
fn sha256_nist_vectors() {
    let cases: &[(&[u8], &str)] = &[
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
              ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
    ];
    for (input, expected) in cases {
        assert_eq!(sha256(input).to_hex(), *expected, "input {input:?}");
    }
}

#[test]
fn sha256_million_a() {
    // The classic FIPS long-message vector: 1,000,000 repetitions of 'a'.
    let input = vec![b'a'; 1_000_000];
    assert_eq!(
        sha256(&input).to_hex(),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    );
}

#[test]
fn sha256_padding_boundary() {
    // Known answers for `[0x55; L]` either side of each padding edge: 55
    // bytes fit the length in one block, 56 force a second, 64/128 end on
    // a block boundary. Generated with
    // `python3 -c "import hashlib; print(hashlib.sha256(b'\x55' * L).hexdigest())"`.
    let cases = [
        (55, "b0d89fdd8ea175018b2b9e4011472cabd56f529b799d345ec5a85d4707c2d50b"),
        (56, "90570b9db692e826bc3ef8b440d8e9bafacc78220abd270ed1f929bcab88029f"),
        (63, "6d4e3350b63fa268f597da74d667ca704dcc81001cdd65169a4fcbd453fd1b15"),
        (64, "3d9eae666b06b1a975071aca838b4bb5f27a8324eb2ddab0c8eccd71ceae6b50"),
        (65, "6b0fc0075f0b926205932f509e85ce7407d93a9b269c3865cda1f0b7dd2f9467"),
        (119, "2b65d765e9a878e2ff822128260e1a496b06d112dfb1e28b04a7597ea74d70fb"),
        (120, "09a02baece236f519f993edbc70815d9987454d75b244e985ff156ca2865d63b"),
        (128, "2e4cd3047da994c026c3c1f472f045cb243c0ec8b0611d7c55b8861fd9418bab"),
    ];
    for (len, expected) in cases {
        let digest = sha256(&vec![0x55u8; len]);
        assert_eq!(digest.to_hex(), expected, "length {len}");
        assert_eq!(Digest::from_hex(expected), Some(digest), "hex roundtrip, length {len}");
    }
}

/// A [`Hasher`] fed a message in two pieces, split anywhere, hashes
/// exactly its length-prefixed encoding: the streaming buffer is right at
/// every offset within a block.
#[test]
fn hasher_split_anywhere_equals_one_shot() {
    let data: Vec<u8> = (0..=200u8).collect();
    for len in 0..=200 {
        for split in 0..=len {
            let (a, b) = data[..len].split_at(split);
            let mut hasher = Hasher::new("split");
            hasher.update(a).update(b);
            let mut encoding = Vec::new();
            for field in [&b"split"[..], a, b] {
                encoding.extend_from_slice(&(field.len() as u64).to_be_bytes());
                encoding.extend_from_slice(field);
            }
            assert_eq!(hasher.finalize(), sha256(&encoding), "length {len}, split {split}");
        }
    }
}

#[test]
fn vrf_deterministic_per_seed_across_views() {
    for seed in [0u64, 1, 99, u64::MAX] {
        let vrf_a = Vrf::new(Keypair::from_seed(seed));
        let vrf_b = Vrf::new(Keypair::from_seed(seed));
        for view in [0u64, 1, 5, 1000] {
            let (out_a, proof_a) = vrf_a.eval(view);
            let (out_b, proof_b) = vrf_b.eval(view);
            assert_eq!(out_a, out_b, "seed {seed} view {view}: output not deterministic");
            assert_eq!(proof_a, proof_b, "seed {seed} view {view}: proof not deterministic");
        }
    }
}

#[test]
fn vrf_outputs_distinguish_seeds_and_views() {
    let vrf0 = Vrf::new(Keypair::from_seed(0));
    let vrf1 = Vrf::new(Keypair::from_seed(1));
    assert_ne!(vrf0.eval(3).0, vrf1.eval(3).0, "different keys must differ");
    assert_ne!(vrf0.eval(3).0, vrf0.eval(4).0, "different views must differ");
}

#[test]
fn vrf_verifies_only_the_genuine_tuple() {
    let kp = Keypair::from_seed(7);
    let other = Keypair::from_seed(8);
    let vrf = Vrf::new(kp);
    let (out, proof) = vrf.eval(12);
    assert!(Vrf::verify(&kp.public(), 12, &out, &proof));
    assert!(!Vrf::verify(&kp.public(), 13, &out, &proof), "wrong view accepted");
    assert!(!Vrf::verify(&other.public(), 12, &out, &proof), "wrong key accepted");
    let (other_out, other_proof) = Vrf::new(other).eval(12);
    assert!(!Vrf::verify(&kp.public(), 12, &other_out, &other_proof), "swapped output accepted");
}

#[test]
fn signatures_bind_message_and_key() {
    let kp = Keypair::from_seed(3);
    let sig = kp.sign(b"view-5-log");
    assert!(kp.public().verify(b"view-5-log", &sig));
    assert!(!kp.public().verify(b"view-6-log", &sig));
    assert!(!Keypair::from_seed(4).public().verify(b"view-5-log", &sig));
    // Determinism: same seed, same message, same signature.
    assert_eq!(Keypair::from_seed(3).sign(b"view-5-log"), sig);
}
