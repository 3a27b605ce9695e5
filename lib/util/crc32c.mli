(** CRC32C (Castagnoli) checksums. Page headers and log records carry a
    CRC so recovery can detect torn writes (§4.4.2). On x86-64 with
    SSE4.2 the [crc32] instruction computes it; elsewhere a table-slicing
    kernel (16 bytes per iteration) does. *)

(** [update crc s pos len] folds a slice into a running (pre-inverted)
    state; compose incrementally or use {!string}/{!bytes}. Raises
    [Invalid_argument] when the slice is not inside [s]. *)
val update : int -> string -> int -> int -> int

(** {!update} on the table kernel on every CPU: the fallback, and the
    kernel the tests hold the hardware path to. *)
val table_update : int -> string -> int -> int -> int

(** The kernel {!update} runs on this CPU: ["sse4.2"] or
    ["slice-by-16"]. Chosen once, at module initialisation. *)
val kernel : string

(** CRC32C of a whole string (CRC32C("123456789") = 0xE3069283). *)
val string : string -> int

(** CRC32C of a byte-buffer slice. *)
val bytes : bytes -> int -> int -> int
