//! Property-style tests for the logic-value layer, driven by the in-tree
//! seeded [`Prng`] so they run with no registry access.

use sdd_logic::{BitVec, MaskedBitVec, PatternBlock, Prng, SddError, V5};

const CASES: usize = 64;

fn random_bitvec(rng: &mut Prng, max_len: usize) -> BitVec {
    let len = rng.gen_range(0..max_len);
    (0..len).map(|_| rng.gen_bool(0.5)).collect()
}

fn random_v5(rng: &mut Prng) -> V5 {
    *rng.choose(&[V5::Zero, V5::One, V5::X, V5::D, V5::Db])
        .unwrap()
}

#[test]
fn display_parse_round_trip() {
    let mut rng = Prng::seed_from_u64(0x10);
    for _ in 0..CASES {
        let v = random_bitvec(&mut rng, 300);
        let back: BitVec = v.to_string().parse().unwrap();
        assert_eq!(back, v);
    }
}

#[test]
fn push_get_agree() {
    let mut rng = Prng::seed_from_u64(0x11);
    for _ in 0..CASES {
        let bits: Vec<bool> = (0..rng.gen_range(0..300))
            .map(|_| rng.gen_bool(0.5))
            .collect();
        let v: BitVec = bits.iter().copied().collect();
        assert_eq!(v.len(), bits.len());
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(v.get(i), Some(b));
        }
        assert_eq!(v.count_ones(), bits.iter().filter(|&&b| b).count());
    }
}

#[test]
fn hamming_is_a_metric() {
    let mut rng = Prng::seed_from_u64(0x12);
    for _ in 0..CASES {
        let a = random_bitvec(&mut rng, 200);
        let b = random_bitvec(&mut rng, 200);
        let c = random_bitvec(&mut rng, 200);
        let n = a.len().min(b.len()).min(c.len());
        let a: BitVec = a.iter().take(n).collect();
        let b: BitVec = b.iter().take(n).collect();
        let c: BitVec = c.iter().take(n).collect();
        let dab = a.hamming_distance(&b).unwrap();
        let dba = b.hamming_distance(&a).unwrap();
        assert_eq!(dab, dba, "symmetry");
        assert_eq!(a.hamming_distance(&a).unwrap(), 0, "identity");
        assert_eq!(dab == 0, a == b, "separation");
        let dac = a.hamming_distance(&c).unwrap();
        let dcb = c.hamming_distance(&b).unwrap();
        assert!(dab <= dac + dcb, "triangle inequality");
    }
}

#[test]
fn xor_popcount_is_hamming() {
    let mut rng = Prng::seed_from_u64(0x13);
    for _ in 0..CASES {
        let a = random_bitvec(&mut rng, 200);
        let b = random_bitvec(&mut rng, 200);
        let n = a.len().min(b.len());
        let a: BitVec = a.iter().take(n).collect();
        let b: BitVec = b.iter().take(n).collect();
        assert_eq!((&a ^ &b).count_ones(), a.hamming_distance(&b).unwrap());
    }
}

#[test]
fn double_complement_is_identity() {
    let mut rng = Prng::seed_from_u64(0x14);
    for _ in 0..CASES {
        let v = random_bitvec(&mut rng, 200);
        assert_eq!(!&!&v, v);
    }
}

#[test]
fn toggle_is_involution() {
    let mut rng = Prng::seed_from_u64(0x15);
    for _ in 0..CASES {
        let v = random_bitvec(&mut rng, 200);
        if v.is_empty() {
            continue;
        }
        let index = rng.gen_range(0..v.len());
        let mut w = v.clone();
        w.toggle(index);
        assert_ne!(w, v);
        w.toggle(index);
        assert_eq!(w, v);
    }
}

#[test]
fn ordering_is_consistent_with_equality() {
    let mut rng = Prng::seed_from_u64(0x16);
    for _ in 0..CASES {
        let a = random_bitvec(&mut rng, 100);
        let b = random_bitvec(&mut rng, 100);
        assert_eq!(a == b, a.cmp(&b) == std::cmp::Ordering::Equal);
        assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
    }
}

#[test]
fn block_transposition_round_trip() {
    let mut rng = Prng::seed_from_u64(0x17);
    for _ in 0..CASES {
        let count = rng.gen_range(1..64);
        let patterns: Vec<Vec<bool>> = (0..count)
            .map(|_| (0..5).map(|_| rng.gen_bool(0.5)).collect())
            .collect();
        let vecs: Vec<BitVec> = patterns
            .iter()
            .map(|p| p.iter().copied().collect())
            .collect();
        let block = PatternBlock::from_patterns(5, &vecs);
        for (p, pattern) in patterns.iter().enumerate() {
            for (i, &bit) in pattern.iter().enumerate() {
                assert_eq!(block.input_word(i) >> p & 1 == 1, bit);
            }
        }
        assert_eq!(block.lane_mask().count_ones() as usize, patterns.len());
    }
}

#[test]
fn v5_de_morgan() {
    let mut rng = Prng::seed_from_u64(0x18);
    for _ in 0..CASES {
        let a = random_v5(&mut rng);
        let b = random_v5(&mut rng);
        assert_eq!(a.and(b).not(), a.not().or(b.not()));
        assert_eq!(a.or(b).not(), a.not().and(b.not()));
    }
}

#[test]
fn v5_operations_sound_on_pairs() {
    let mut rng = Prng::seed_from_u64(0x19);
    for _ in 0..CASES {
        let a = random_v5(&mut rng);
        let b = random_v5(&mut rng);
        // Whenever the result is fully determined, it must agree with the
        // boolean operation applied to each machine separately, for every
        // completion of unknown operands.
        for (ga, fa) in completions(a) {
            for (gb, fb) in completions(b) {
                let and = a.and(b);
                if let (Some(g), Some(f)) = (and.good(), and.faulty()) {
                    assert_eq!(g, ga && gb);
                    assert_eq!(f, fa && fb);
                }
                let xor = a.xor(b);
                if let (Some(g), Some(f)) = (xor.good(), xor.faulty()) {
                    assert_eq!(g, ga ^ gb);
                    assert_eq!(f, fa ^ fb);
                }
            }
        }
    }
}

#[test]
fn masked_distance_agrees_with_hamming_when_fully_known() {
    let mut rng = Prng::seed_from_u64(0x1A);
    for _ in 0..CASES {
        let a = random_bitvec(&mut rng, 150);
        let b: BitVec = (0..a.len()).map(|_| rng.gen_bool(0.5)).collect();
        let m = MaskedBitVec::from_known(a.clone());
        let d = m.distance_to(&b).unwrap();
        assert_eq!(Some(d.mismatches), a.hamming_distance(&b));
        assert_eq!(d.known, a.len());
    }
}

#[test]
fn masking_bits_never_increases_masked_distance() {
    let mut rng = Prng::seed_from_u64(0x1B);
    for _ in 0..CASES {
        let a = random_bitvec(&mut rng, 150);
        let b: BitVec = (0..a.len()).map(|_| rng.gen_bool(0.5)).collect();
        let mut m = MaskedBitVec::from_known(a);
        let mut last = m.distance_to(&b).unwrap().mismatches;
        for i in 0..m.len() {
            if rng.gen_bool(0.3) {
                m.mask(i);
                let d = m.distance_to(&b).unwrap().mismatches;
                assert!(d <= last, "masking cannot add mismatches");
                last = d;
            }
        }
    }
}

/// The char-by-char masked parser: values and known mask, or the parse
/// error message.
fn reference_masked_parse(s: &str) -> Result<(BitVec, BitVec), String> {
    let (mut values, mut known) = (BitVec::new(), BitVec::new());
    for (position, c) in s.chars().enumerate() {
        let (value, is_known) = match c {
            '0' => (false, true),
            '1' => (true, true),
            'x' | 'X' | '-' => (false, false),
            offending => {
                return Err(format!(
                    "invalid masked bit character {offending:?} at position {position}"
                ))
            }
        };
        values.push(value);
        known.push(is_known);
    }
    Ok((values, known))
}

#[test]
fn masked_parse_matches_a_char_by_char_reference() {
    const GOOD: [char; 5] = ['0', '1', 'x', 'X', '-'];
    const BAD: [char; 10] = [
        '2', 'Q', 'Y', ' ', '/', '\0', '\x7f', '\u{b}', 'é', '\u{3000}',
    ];
    let mut rng = Prng::seed_from_u64(0x1C);
    let (mut parsed, mut rejected) = (0, 0);
    for case in 0..4000 {
        // Lengths 0-200 cross the 8-char step and the 64-bit word.
        let len = rng.gen_range(0..=200);
        let bad_rate = [0.0, 0.002, 0.01, 0.1][case % 4];
        let s: String = (0..len)
            .map(|_| {
                let alphabet: &[char] = if rng.gen_bool(bad_rate) { &BAD } else { &GOOD };
                *rng.choose(alphabet).unwrap()
            })
            .collect();
        match (s.parse::<MaskedBitVec>(), reference_masked_parse(&s)) {
            (Ok(v), Ok((values, known))) => {
                parsed += 1;
                assert_eq!(v.len(), values.len(), "{s:?}");
                assert_eq!(v.values(), &values, "{s:?}");
                assert_eq!(v.known_mask(), &known, "{s:?}");
                let display: String = s
                    .chars()
                    .map(|c| if c == '0' || c == '1' { c } else { 'X' })
                    .collect();
                assert_eq!(v.to_string(), display, "{s:?}");
            }
            (Err(error), Err(message)) => {
                rejected += 1;
                assert_eq!(error, SddError::Parse { line: 0, message }, "{s:?}");
            }
            (got, want) => panic!("{s:?}: parsed {got:?}, reference {want:?}"),
        }
    }
    assert!(
        parsed > 1000 && rejected > 1000,
        "{parsed} parsed, {rejected} rejected"
    );
}

/// All concrete (good, faulty) pairs a composite value may stand for.
fn completions(v: V5) -> Vec<(bool, bool)> {
    match (v.good(), v.faulty()) {
        (Some(g), Some(f)) => vec![(g, f)],
        _ => vec![(false, false), (false, true), (true, false), (true, true)],
    }
}
