(* The benchmark's workloads: sizes, operation mix, key distribution,
   deterministic inputs, and the oracle every result is checked against.
   Why each workload exists is recorded in NOTES.md. *)

module Prng = Repro_util.Prng

let records = 40_000

type pool = Data_share of float | Whole_store
type dist = Rewrite_passes | Zipfian | Uniform

type spec = {
  name : string;
  value_bytes : int;
  pool : pool;
  put_pct : int;
  get_pct : int;  (** the rest of the mix is scans of 1-100 rows *)
  dist : dist;
  warm_read_pass : bool;
  ops_per_second : int;
      (** phase length is [seconds * ops_per_second] operations: a fixed
          count, so every count and every simulated-clock figure is a
          function of the seed alone *)
}

let specs =
  [
    {
      name = "rewrite";
      value_bytes = 1000;
      pool = Data_share 0.04;
      put_pct = 100;
      get_pct = 0;
      dist = Rewrite_passes;
      warm_read_pass = false;
      ops_per_second = 24_000;
    };
    {
      name = "cached_read";
      value_bytes = 100;
      pool = Whole_store;
      put_pct = 5;
      get_pct = 95;
      dist = Zipfian;
      warm_read_pass = true;
      ops_per_second = 220_000;
    };
    {
      name = "mixed_uncached";
      value_bytes = 1000;
      pool = Data_share 0.04;
      put_pct = 45;
      get_pct = 50;
      dist = Uniform;
      warm_read_pass = false;
      ops_per_second = 16_000;
    };
  ]

let find name = List.find_opt (fun s -> String.equal s.name name) specs

(* As bench/scale.ml sizes the engine: data = records * (value + 24 B),
   C0 = 16% of data. *)
let data_bytes s = records * (s.value_bytes + 24)
let page_size = 4096

let pool_pages s =
  match s.pool with
  | Data_share f -> max 64 (int_of_float (f *. float_of_int (data_bytes s)) / page_size)
  (* every on-disk page fits: the store holds about 1.6 times the live
     data on cached_read, well under four *)
  | Whole_store -> 4 * data_bytes s / page_size

let config s =
  {
    Blsm.Config.default with
    Blsm.Config.c0_bytes = int_of_float (0.16 *. float_of_int (data_bytes s));
    extent_pages = 1024;
  }

let create_tree s =
  let store =
    Pagestore.Store.create
      ~config:
        {
          Pagestore.Store.cfg_page_size = page_size;
          cfg_buffer_pages = pool_pages s;
          cfg_durability = Pagestore.Wal.Full;
        }
      Simdisk.Profile.ssd_raid0
  in
  Blsm.Tree.create ~config:(config s) store

(* {1 Inputs} *)

let keys = Array.init records Repro_util.Keygen.key_of_id

(* Keys in sorted order, and each id's rank in it: the oracle for scans. *)
let sorted_ids =
  let a = Array.init records Fun.id in
  Array.sort (fun i j -> String.compare keys.(i) keys.(j)) a;
  a

let rank =
  let r = Array.make records 0 in
  Array.iteri (fun pos id -> r.(id) <- pos) sorted_ids;
  r

(* Value [ver] of record [id]: a 16-hex-digit header naming (id, ver)
   followed by a seeded-random body slice, so the oracle keeps one int
   per key and a returned value names the write it came from. *)
type values = { vb : int; body : string }

let header_len = 16

let values ~seed ~value_bytes =
  let prng = Prng.of_int (seed lxor 0x5eed) in
  { vb = value_bytes; body = String.init (2 * value_bytes) (fun _ -> Char.chr (97 + Prng.int prng 26)) }

let value v id ver =
  let b = Bytes.create v.vb in
  Bytes.blit_string (Printf.sprintf "%08x%08x" id ver) 0 b 0 header_len;
  let off = (id * 7919 + ver * 104729) mod v.vb in
  Bytes.blit_string v.body off b header_len (v.vb - header_len);
  Bytes.unsafe_to_string b

(* The (id, ver) a value's header names, if it parses. *)
let header_of s =
  if String.length s < header_len then None
  else
    match
      ( int_of_string_opt ("0x" ^ String.sub s 0 8),
        int_of_string_opt ("0x" ^ String.sub s 8 8) )
    with
    | Some id, Some ver -> Some (id, ver)
    | _ -> None

(* {1 The operation stream} *)

type op = Put of int | Get of int | Scan of int * int  (** start id, rows *)

type stream = {
  spec : spec;
  prng : Prng.t;
  zipf : Ycsb.Generator.t;
  perm : int array;
  mutable pos : int;
  mutable digest : int;  (** running hash of every op drawn *)
}

let stream spec ~seed =
  let perm = Array.init records Fun.id in
  {
    spec;
    prng = Prng.of_int seed;
    zipf = Ycsb.Generator.zipfian ~seed:(seed + 1) ~n:records ();
    perm;
    pos = records;
    digest = seed;
  }

let next_id st =
  match st.spec.dist with
  | Uniform -> Prng.int st.prng records
  | Zipfian -> Ycsb.Generator.next st.zipf ~record_count:records
  | Rewrite_passes ->
      if st.pos = records then begin
        Prng.shuffle st.prng st.perm;
        st.pos <- 0
      end;
      let id = st.perm.(st.pos) in
      st.pos <- st.pos + 1;
      id

let next st =
  let r = if st.spec.put_pct = 100 then 0 else Prng.int st.prng 100 in
  let op, code =
    if r < st.spec.put_pct then
      let id = next_id st in
      (Put id, id)
    else if r < st.spec.put_pct + st.spec.get_pct then
      let id = next_id st in
      (Get id, records + id)
    else
      let id = next_id st in
      let rows = 1 + Prng.int st.prng 100 in
      (Scan (id, rows), (2 * records) + (id * 128) + rows)
  in
  st.digest <- Hashtbl.hash (st.digest, code);
  op

(* {1 The oracle: the last acknowledged write of every key} *)

type oracle = {
  vals : values;
  acked : int array;  (** version of the last acknowledged put *)
  unacked : int array;
      (** version of a later put that raised (0: none); it may or may
          not have landed, so either answer is accepted *)
  mutable wrong : int;  (** answers that match no write of the key *)
  mutable lost : int;  (** answers older than an acknowledged write *)
}

let oracle vals =
  { vals; acked = Array.make records 0; unacked = Array.make records 0; wrong = 0; lost = 0 }

let next_version o id = max o.acked.(id) o.unacked.(id) + 1

let ack o id ver =
  o.acked.(id) <- ver;
  o.unacked.(id) <- 0

let nack o id ver = o.unacked.(id) <- ver

(* [check o id got] is true when [got] is the key's last acknowledged
   value or an unacknowledged later one; otherwise the miss is counted
   as lost (an older write of the key, or nothing) or wrong. *)
let check o id got =
  let ok ver = ver > 0 && match got with Some v -> String.equal v (value o.vals id ver) | None -> false in
  if ok o.acked.(id) || ok o.unacked.(id) then true
  else begin
    (match got with
    | None -> o.lost <- o.lost + 1
    | Some v -> (
        match header_of v with
        | Some (hid, ver) when hid = id && ver < o.acked.(id) && String.equal v (value o.vals id ver) ->
            o.lost <- o.lost + 1
        | _ -> o.wrong <- o.wrong + 1));
    false
  end

(* [check_scan o id rows got]: [got] must be the [rows] keys from
   [id]'s onward in key order (fewer at the end of the keyspace), each
   with a value [check] accepts. A missing, extra or misplaced row is a
   wrong answer. *)
let check_scan o id rows got =
  let first = rank.(id) in
  let expect = min rows (records - first) in
  let rec go i = function
    | [] -> i = expect || (o.wrong <- o.wrong + 1; false)
    | (k, v) :: rest ->
        if i >= expect || not (String.equal k keys.(sorted_ids.(first + i))) then begin
          o.wrong <- o.wrong + 1;
          false
        end
        else check o sorted_ids.(first + i) (Some v) && go (i + 1) rest
  in
  go 0 got

(* {1 Set-up: create the store, preload, settle, warm} *)

type setup = { tree : Blsm.Tree.t; oracle : oracle }

(* Records per set-up stage of the preload and of the warm-up read pass. *)
let stage_records = 5000

(* [setup ?stage spec vals] runs each stage [f] of the set-up as
   [stage f]: creating the tree, each [stage_records] of the preload,
   the settling [maintenance], each [stage_records] of the warm-up read
   pass. The timed set-ups time the stages one by one. *)
let setup ?(stage = fun f -> f ()) spec vals =
  let tree = lazy (create_tree spec) in
  stage (fun () -> ignore (Lazy.force tree));
  let tree = Lazy.force tree in
  let o = oracle vals in
  let in_stages f =
    for c = 0 to (records / stage_records) - 1 do
      stage (fun () ->
          for id = c * stage_records to ((c + 1) * stage_records) - 1 do
            f id
          done)
    done
  in
  in_stages (fun id ->
      Blsm.Tree.put tree keys.(id) (value vals id 1);
      ack o id 1);
  stage (fun () -> Blsm.Tree.maintenance tree);
  if spec.warm_read_pass then
    in_stages (fun id ->
        if not (check o id (Blsm.Tree.get tree keys.(id))) then
          failwith (Printf.sprintf "warm-up read of record %d is wrong" id));
  { tree; oracle = o }

let phase_ops spec ~seconds =
  let n = seconds * spec.ops_per_second in
  match spec.dist with
  | Rewrite_passes -> records * max 1 ((n + records - 1) / records)
  | Zipfian | Uniform -> n

(* Ops run before the measured phase so that merges reach their steady
   cycle; they are checked like any other op but measured by nothing. *)
let warmup_ops spec ~seconds = phase_ops spec ~seconds / 2
