(** CRC32C (Castagnoli) checksums.

    Page headers and log records carry a CRC so that recovery can detect
    torn writes, mirroring the checks Stasis performs for bLSM (§4.4.2).

    Two kernels compute the same function. On x86-64 CPUs with SSE4.2,
    {!update} calls the [crc32] instruction through a C stub
    ([crc32c_stubs.c]), eight bytes per step on three independent
    streams of 256 bytes each, joined by a shift-by-256-bytes table.
    Elsewhere it runs a table-slicing loop in OCaml. The CPU is checked
    once, when this module is initialised.

    The table kernel: the classic one-table loop is bound by its serial
    dependency chain, since every byte's table lookup waits on the
    previous byte's result. The slicing construction (Intel's
    slice-by-8, here unrolled to a 16-byte stride over 16 derived
    tables) folds whole blocks per iteration: only the first four
    lookups depend on the running state, the rest index straight off
    input bytes, so the CPU overlaps them. A byte-at-a-time loop remains
    for unaligned tails. The test suite holds both kernels to the
    standard vectors and a bit-at-a-time reference. *)

let polynomial = 0x82F63B78 (* reflected CRC32C polynomial *)

let nslices = 16

(* Flattened tables: slot [k*256 + n] holds table k. Table 0 is the
   classic byte table; table k advances a byte through k additional zero
   bytes, so sixteen lookups combine into one 16-byte step. *)
let tables =
  lazy
    (let t = Array.make (nslices * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         if !c land 1 = 1 then c := (!c lsr 1) lxor polynomial
         else c := !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to nslices - 1 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
       done
     done;
     t)

(* Written so that no sum can overflow: the C stub trusts these bounds. *)
let check_bounds s pos len =
  if pos < 0 || len < 0 || len > String.length s - pos then
    invalid_arg "Crc32c.update"

(** [table_update crc s pos len] is {!update} on the table kernel,
    whatever the CPU. *)
let table_update crc s pos len =
  check_bounds s pos len;
  let tab = Lazy.force tables in
  let crc = ref (crc land 0xFFFFFFFF) in
  let i = ref pos in
  let stop = pos + len in
  while stop - !i >= 16 do
    let j = !i in
    let b0 = Char.code (String.unsafe_get s j)
    and b1 = Char.code (String.unsafe_get s (j + 1))
    and b2 = Char.code (String.unsafe_get s (j + 2))
    and b3 = Char.code (String.unsafe_get s (j + 3)) in
    let c = !crc in
    (* The two 8-lookup halves share no state: independent load chains. *)
    let hi =
      Array.unsafe_get tab ((15 * 256) + ((c lxor b0) land 0xFF))
      lxor Array.unsafe_get tab ((14 * 256) + (((c lsr 8) land 0xFF) lxor b1))
      lxor Array.unsafe_get tab ((13 * 256) + (((c lsr 16) land 0xFF) lxor b2))
      lxor Array.unsafe_get tab ((12 * 256) + ((c lsr 24) lxor b3))
      lxor Array.unsafe_get tab
             ((11 * 256) + Char.code (String.unsafe_get s (j + 4)))
      lxor Array.unsafe_get tab
             ((10 * 256) + Char.code (String.unsafe_get s (j + 5)))
      lxor Array.unsafe_get tab
             ((9 * 256) + Char.code (String.unsafe_get s (j + 6)))
      lxor Array.unsafe_get tab
             ((8 * 256) + Char.code (String.unsafe_get s (j + 7)))
    in
    let lo =
      Array.unsafe_get tab
        ((7 * 256) + Char.code (String.unsafe_get s (j + 8)))
      lxor Array.unsafe_get tab
             ((6 * 256) + Char.code (String.unsafe_get s (j + 9)))
      lxor Array.unsafe_get tab
             ((5 * 256) + Char.code (String.unsafe_get s (j + 10)))
      lxor Array.unsafe_get tab
             ((4 * 256) + Char.code (String.unsafe_get s (j + 11)))
      lxor Array.unsafe_get tab
             ((3 * 256) + Char.code (String.unsafe_get s (j + 12)))
      lxor Array.unsafe_get tab
             ((2 * 256) + Char.code (String.unsafe_get s (j + 13)))
      lxor Array.unsafe_get tab (256 + Char.code (String.unsafe_get s (j + 14)))
      lxor Array.unsafe_get tab (Char.code (String.unsafe_get s (j + 15)))
    in
    crc := hi lxor lo;
    i := j + 16
  done;
  if stop - !i >= 8 then begin
    let j = !i in
    let b0 = Char.code (String.unsafe_get s j)
    and b1 = Char.code (String.unsafe_get s (j + 1))
    and b2 = Char.code (String.unsafe_get s (j + 2))
    and b3 = Char.code (String.unsafe_get s (j + 3)) in
    let c = !crc in
    crc :=
      Array.unsafe_get tab ((7 * 256) + ((c lxor b0) land 0xFF))
      lxor Array.unsafe_get tab ((6 * 256) + (((c lsr 8) land 0xFF) lxor b1))
      lxor Array.unsafe_get tab ((5 * 256) + (((c lsr 16) land 0xFF) lxor b2))
      lxor Array.unsafe_get tab ((4 * 256) + ((c lsr 24) lxor b3))
      lxor Array.unsafe_get tab
             ((3 * 256) + Char.code (String.unsafe_get s (j + 4)))
      lxor Array.unsafe_get tab
             ((2 * 256) + Char.code (String.unsafe_get s (j + 5)))
      lxor Array.unsafe_get tab (256 + Char.code (String.unsafe_get s (j + 6)))
      lxor Array.unsafe_get tab (Char.code (String.unsafe_get s (j + 7)));
    i := j + 8
  end;
  while !i < stop do
    let idx = (!crc lxor Char.code (String.unsafe_get s !i)) land 0xFF in
    crc := (!crc lsr 8) lxor Array.unsafe_get tab idx;
    incr i
  done;
  !crc

external hw_available : unit -> bool = "repro_crc32c_hw_available"
[@@noalloc]

(* The stub reads [len] bytes at [pos] without checking: callers check. *)
external hw_update :
  (int[@untagged]) -> string -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) = "repro_crc32c_hw_update_byte" "repro_crc32c_hw_update"
[@@noalloc]

let hardware = hw_available ()

let kernel = if hardware then "sse4.2" else "slice-by-16"

(** [update crc s pos len] folds [len] bytes of [s] starting at [pos] into
    a running checksum. Start from [0xFFFFFFFF]-complemented state via
    {!string} unless composing incrementally. *)
let update crc s pos len =
  if hardware then begin
    check_bounds s pos len;
    hw_update (crc land 0xFFFFFFFF) s pos len
  end
  else table_update crc s pos len

(** [string s] is the CRC32C of the whole string. *)
let string s =
  let crc = update 0xFFFFFFFF s 0 (String.length s) in
  crc lxor 0xFFFFFFFF

(** [bytes b pos len] checksums a slice of a byte buffer (no copy: the
    buffer is aliased for the duration of the fold). *)
let bytes b pos len =
  let crc = update 0xFFFFFFFF (Bytes.unsafe_to_string b) pos len in
  crc lxor 0xFFFFFFFF
