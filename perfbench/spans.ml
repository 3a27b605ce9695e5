(* Per-op spans of a traced run, kept in memory as LEB128 varints (about
   30 bytes a span) and written out when the run ends. Every field is a
   non-negative int: a time, or a counter delta taken around one call
   into the engine. *)

let fields =
  [|
    "kind";  (* 0 put, 1 get, 2 scan; +8 when the op failed *)
    "start_ns";  (* since the phase began *)
    "dur_ns";
    "sim_ns";  (* simulated clock advance, ns *)
    "minor_words";
    "seeks";
    "read_bytes";  (* sequential + random *)
    "write_bytes";  (* sequential + random *)
    "wal_bytes";
    "pool_hits";
    "pool_misses";
    "evictions";
    "stall_ns";  (* Tree.last_stall total, puts only *)
    "stall_merge1_ns";
    "stall_merge2_ns";
    "stall_hard_ns";
    "wal_sim_ns";
    "bloom_negatives";
    "bloom_false_positives";
    "rows";  (* scan rows returned *)
    "merge1_completions";
    "merge2_completions";
    "promotions";
    "hard_stalls";
  |]

let width = Array.length fields
let field name =
  let rec go i = if String.equal fields.(i) name then i else go (i + 1) in
  go 0

let kind = field "kind"
let start_ns = field "start_ns"
let dur_ns = field "dur_ns"
let sim_ns = field "sim_ns"
let minor_words = field "minor_words"
let seeks = field "seeks"
let read_bytes = field "read_bytes"
let write_bytes = field "write_bytes"
let wal_bytes = field "wal_bytes"
let pool_hits = field "pool_hits"
let pool_misses = field "pool_misses"
let evictions = field "evictions"
let stall_ns = field "stall_ns"
let stall_merge1_ns = field "stall_merge1_ns"
let stall_merge2_ns = field "stall_merge2_ns"
let stall_hard_ns = field "stall_hard_ns"
let wal_sim_ns = field "wal_sim_ns"
let bloom_negatives = field "bloom_negatives"
let bloom_false_positives = field "bloom_false_positives"
let rows = field "rows"
let merge1_completions = field "merge1_completions"
let merge2_completions = field "merge2_completions"
let promotions = field "promotions"
let hard_stalls = field "hard_stalls"

let failed_flag = 8

type t = { buf : Buffer.t; mutable count : int; row : int array }

let create () = { buf = Buffer.create (1 lsl 20); count = 0; row = Array.make width 0 }

let rec add_varint buf n =
  if n < 0x80 then Buffer.add_char buf (Char.unsafe_chr n)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (n land 0x7f lor 0x80));
    add_varint buf (n lsr 7)
  end

(* Append [t.row] as one span; the caller fills the row first. *)
let commit t =
  Array.iter (fun v -> add_varint t.buf (max 0 v)) t.row;
  t.count <- t.count + 1

let iter t f =
  let s = Buffer.contents t.buf in
  let pos = ref 0 in
  let row = Array.make width 0 in
  let rec varint shift acc =
    let b = Char.code s.[!pos] in
    incr pos;
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b < 0x80 then acc else varint (shift + 7) acc
  in
  for _ = 1 to t.count do
    for i = 0 to width - 1 do
      row.(i) <- varint 0 0
    done;
    f row
  done

(* One header line naming the fields, then the spans as varints. *)
let write t path =
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "blsm-bench spans v1 count=%d fields=%s\n" t.count
        (String.concat "," (Array.to_list fields));
      Buffer.output_buffer oc t.buf)
