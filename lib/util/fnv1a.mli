(** 64-bit FNV-1a string hash: deterministic across runs, platforms and
    heap layouts (unlike [Hashtbl.hash]), and allocation-free. Bloom
    filters derive their probe positions from it; the memtable's skip
    list indexes keys by it. *)

(** [hash64 s k x] hashes [s] and returns [k x hi lo], where [hi] and
    [lo] are the upper and lower 32 bits of the 64-bit hash. Passing the
    halves as immediate ints keeps the hash unboxed; a closed [k] makes
    the whole call allocation-free. *)
val hash64 : string -> ('a -> int -> int -> 'b) -> 'a -> 'b

(** [hash s] is the 64-bit hash truncated to an [int] (its low 63
    bits). *)
val hash : string -> int
