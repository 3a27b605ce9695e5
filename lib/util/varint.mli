(** LEB128-style variable-length integer encoding, used by the SSTable
    record format and the write-ahead log. *)

(** [write buf n] appends the varint encoding of [n >= 0]. *)
val write : Buffer.t -> int -> unit

(** [read s pos] decodes at [pos]: [(value, next_pos)]. Raises
    [Invalid_argument] on truncated or oversized input. *)
val read : string -> int -> int * int

val read_bytes : bytes -> int -> int * int
[@@lint.allow "U001"] (* bytes variant kept beside [read] *)

(** {2 Tuple-free decoding} for hot loops: [next] bounds the varint,
    [value] decodes it. *)

(** [next s pos ~limit] is the offset just past the varint at [pos], or
    [-1] when it does not end before [limit] (or [String.length s]), or
    is longer than the 9 bytes an [int] holds. *)
val next : string -> int -> limit:int -> int

(** [value s pos] decodes the varint at [pos]; only call it where
    {!next} returned a non-negative offset. *)
val value : string -> int -> int

(** [end_of s pos] is {!next} up to the end of [s], raising exactly as
    {!read} does where [next] returns [-1]. *)
val end_of : string -> int -> int

(** Encoded length of [n], in bytes. *)
val size : int -> int
