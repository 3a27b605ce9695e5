(** Bloom filter with double hashing.

    Follows §4.4.3: the filter is "based upon double hashing" (Kirsch and
    Mitzenmacher: two independent hashes g_i(x) = h1(x) + i*h2(x) give the
    same asymptotic false-positive rate as k independent hashes). One
    filter guards each on-disk tree component; it is created when a merge
    creates the component, sized from the component's key count for a
    false-positive rate below 1%, and never needs deletions because the
    on-disk trees are append-only.

    10 bits per item with the optimal number of hashes gives ~1% false
    positives (§3.1); at 1000-byte values this is the paper's ~5% memory
    overhead (Appendix A).

    Two layouts share that budget. [Standard] spreads the k probes over
    the whole bit array — the seed's filter, best false-positive rate.
    [Blocked] confines all probes of a key to one 64-byte (512-bit)
    block chosen by h1, so a membership test touches a single cache
    line; probe positions come in pairs carved from each derived hash
    (two 9-bit fields of g_i — the "double-probe" scheme), halving the
    hash arithmetic per test. The price is a small false-positive
    penalty from block-load variance (Poisson-distributed keys per
    block); see DESIGN.md §12 for the math. *)

type kind = Standard | Blocked

(** Bits per cache-line block of the {!Blocked} layout. *)
let block_bits = 512

type t = {
  kind : kind;
  bits : Bytes.t;
  nbits : int;
  hashes : int;
  mutable inserted : int;
}

(** [create ~expected_items ~bits_per_item ()] sizes the filter for
    [expected_items] insertions. [bits_per_item] defaults to 10 (the
    paper's choice, <1% false positives); [kind] to {!Standard}. The
    {!Blocked} layout rounds the array up to whole 512-bit blocks. *)
let create ?(kind = Standard) ?(bits_per_item = 10) ~expected_items () =
  let expected_items = max 1 expected_items in
  let nbits = max 64 (expected_items * bits_per_item) in
  let nbits =
    match kind with
    | Standard -> nbits
    | Blocked -> (nbits + block_bits - 1) / block_bits * block_bits
  in
  (* Optimal hash count k = m/n * ln 2 ~= 0.693 * bits_per_item. *)
  let hashes = max 1 (int_of_float (0.6931 *. float_of_int bits_per_item +. 0.5)) in
  { kind; bits = Bytes.make ((nbits + 7) / 8) '\000'; nbits; hashes; inserted = 0 }

let kind t = t.kind

let set_bit t i =
  let byte = i lsr 3 and bit = i land 7 in
  Bytes.set t.bits byte
    (Char.chr (Char.code (Bytes.get t.bits byte) lor (1 lsl bit)))

let get_bit t i =
  let byte = i lsr 3 and bit = i land 7 in
  Char.code (Bytes.get t.bits byte) land (1 lsl bit) <> 0

(* Set the bit at [pos] ([set]: an insert, always true) or test it. *)
let touch t set pos =
  if set then begin
    set_bit t pos;
    true
  end
  else get_bit t pos

(* Blocked layout: h1 picks the 512-bit block; each derived value yields
   two 9-bit in-block positions, so ceil(k/2) derived hashes cover all k
   probes. Derivation is a multiplicative congruential step per pair
   (g := g * K mod 2^62, K odd, h2 odd so the state never degenerates),
   reading the two positions from g's well-mixed high bits. The feedback
   matters: an additive walk (g += h2) makes g_i a small multiple of h2,
   and high-bit windows of u, 2u, 3u, ... overlap almost bit-for-bit, so
   probe pairs correlate across derivations and the measured
   false-positive rate lands several times above the block-load-variance
   bound; the per-step multiply gives pair i the effective multiplier
   K^(i+1), decorrelating the windows (measured FP sits at the Poisson
   floor, ~1.15x Standard). *)
let blocked_mul = 0x2545F4914F6CDD1D

(* Visit the k probe positions of the key whose 64-bit FNV-1a hash is
   [hi:lo]: set them all ([set]) or test them, stopping at the first
   clear bit. The hash pair is h1 = the hash's low 62 bits and h2 = a
   murmur-style finalizer of it, forced odd so the stride reaches every
   bit; every intermediate stays an unboxed local, so a probe allocates
   nothing. Standard reduces both below nbits (no overflow in
   h1 + i*h2; a zero stride would probe one bit repeatedly). *)
let visit t set hi lo =
  let h =
    Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)
  in
  let m = Int64.logxor h (Int64.shift_right_logical h 33) in
  let m = Int64.mul m 0xFF51AFD7ED558CCDL in
  let m = Int64.logxor m (Int64.shift_right_logical m 29) in
  let h1 = Int64.to_int (Int64.logand h 0x3FFFFFFFFFFFFFFFL) in
  let h2 = Int64.to_int (Int64.logand m 0x3FFFFFFFFFFFFFFFL) lor 1 in
  let ok = ref true and i = ref 0 in
  (match t.kind with
  | Standard ->
      let h1 = h1 mod t.nbits in
      let h2 = match h2 mod t.nbits with 0 -> 1 | h -> h in
      while !ok && !i < t.hashes do
        ok := touch t set ((h1 + (!i * h2)) mod t.nbits);
        incr i
      done
  | Blocked ->
      let base = h1 mod (t.nbits / block_bits) * block_bits in
      let g = ref h2 in
      while !ok && 2 * !i < t.hashes do
        g := !g * blocked_mul land max_int;
        let v = !g lsr 38 in
        ok :=
          touch t set (base + (v land (block_bits - 1)))
          && ((2 * !i) + 1 >= t.hashes
             || touch t set (base + (v lsr 9 land (block_bits - 1))));
        incr i
      done);
  !ok

(** [add t key] inserts [key]. Updates are monotonic (bits only go 0->1),
    which is why bLSM readers never need to be insulated from concurrent
    filter updates (§4.4.3). *)
let add t key =
  ignore
    (Repro_util.Fnv1a.hash64 key (fun t hi lo -> visit t true hi lo) t : bool);
  t.inserted <- t.inserted + 1

(** [mem t key] is [false] only if [key] was definitely never added. *)
let mem t key =
  Repro_util.Fnv1a.hash64 key (fun t hi lo -> visit t false hi lo) t

let inserted t = t.inserted

let size_bytes t = Bytes.length t.bits

(** Expected false-positive rate at the current fill. *)
let expected_fp_rate t =
  let k = float_of_int t.hashes in
  let n = float_of_int t.inserted in
  let m = float_of_int t.nbits in
  (1.0 -. exp (-.k *. n /. m)) ** k

(** {1 Serialization} — used by tests, tooling, and the optional
    persisted-filter path; bLSM's default deliberately does *not*
    persist filters (they are rebuilt by post-crash merges, §4.4.3). *)

let to_string t =
  let buf = Buffer.create (size_bytes t + 16) in
  (* Standard stays byte-identical to the seed's encoding. Blocked is
     flagged by a leading 0x00 byte — impossible as the first byte of
     the Standard form, whose leading varint (nbits) is >= 64. *)
  (match t.kind with Standard -> () | Blocked -> Buffer.add_char buf '\000');
  Repro_util.Varint.write buf t.nbits;
  Repro_util.Varint.write buf t.hashes;
  Repro_util.Varint.write buf t.inserted;
  Buffer.add_bytes buf t.bits;
  Buffer.contents buf

let of_string s =
  let kind, start =
    if String.length s > 0 && Char.equal s.[0] '\000' then (Blocked, 1)
    else (Standard, 0)
  in
  let nbits, pos = Repro_util.Varint.read s start in
  let hashes, pos = Repro_util.Varint.read s pos in
  let inserted, pos = Repro_util.Varint.read s pos in
  let bits = Bytes.of_string (String.sub s pos ((nbits + 7) / 8)) in
  { kind; bits; nbits; hashes; inserted }
