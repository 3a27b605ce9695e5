(** LEB128-style variable-length integer encoding.

    Used by the SSTable data-page format and the write-ahead log so that
    small keys and values pay small headers, as in the paper's append-only
    data page layout (Appendix A.2). *)

(** [write buf n] appends the varint encoding of [n] (must be >= 0). *)
let write buf n =
  if n < 0 then invalid_arg "Varint.write: negative";
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7F)));
      go (n lsr 7)
    end
  in
  go n

let rec next_before s p stop =
  if p >= stop then -1
  else if Char.code (String.unsafe_get s p) < 0x80 then p + 1
  else next_before s (p + 1) stop

(** [next s pos ~limit] is the offset just past the varint at [pos], or
    [-1] when it does not end before [limit] or runs past the 9 bytes an
    [int] holds. Tuple-free: pair it with {!value}. *)
let next s pos ~limit =
  if pos < 0 then -1
  else begin
    (* int comparisons, not [min]: the polymorphic [min] is a C call *)
    let stop = if limit < String.length s then limit else String.length s in
    next_before s pos (if pos + 9 < stop then pos + 9 else stop)
  end

let rec value_from s pos acc shift =
  let b = Char.code (String.unsafe_get s pos) in
  let acc = acc lor ((b land 0x7F) lsl shift) in
  if b < 0x80 then acc else value_from s (pos + 1) acc (shift + 7)

(** [value s pos] decodes the varint at [pos], which {!next} must have
    found complete. *)
let value s pos = value_from s pos 0 0

(** [end_of s pos] is the offset just past the varint at [pos]. Raises
    [Invalid_argument] on truncated or oversized input, as {!read}
    does. *)
let end_of s pos =
  match next s pos ~limit:(String.length s) with
  | -1 ->
      if pos < 0 then invalid_arg "index out of bounds"
      else if String.length s - pos <= 9 then
        invalid_arg "Varint.read: truncated"
      else invalid_arg "Varint.read: overflow"
  | e -> e

(** [read s pos] decodes a varint at [pos]; returns [(value, next_pos)].
    Raises [Invalid_argument] on truncated or oversized input. *)
let read s pos =
  let e = end_of s pos in
  (value s pos, e)

(** [read_bytes b pos] is [read] over a [Bytes.t] buffer. *)
let read_bytes b pos =
  read (Bytes.unsafe_to_string b) pos

(** [size n] is the encoded length of [n] in bytes. *)
let size n =
  if n < 0 then invalid_arg "Varint.size: negative";
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go n 1
