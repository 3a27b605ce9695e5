(** LevelDB-style multi-level LSM tree: the paper's log-structured
    comparator (§5, circa-2012 LevelDB).

    Faithful to the properties the paper measures:
    - a small memtable and many exponentially-sized levels (ratio 10),
      with overlapping files in L0;
    - {b no Bloom filters} (added to LevelDB only later, §5.3), so point
      reads probe one file per level plus every overlapping L0 file —
      O(log n) seeks (Table 1);
    - a {b partition scheduler}: compaction moves one file (plus its
      overlaps) at a time, picked by level score and a round-robin key
      pointer (Figure 3), and runs as atomic units charged to the
      unlucky write that triggers them;
    - L0-count slowdown/stop thresholds, which produce exactly the long
      write pauses of Figure 7 (right).

    Reuses the {!Sstable} format for files, so the two systems' I/O is
    directly comparable. *)

type config = {
  memtable_bytes : int;
  file_bytes : int;  (** target size of one output file *)
  l0_compaction_trigger : int;  (** start compacting L0 at this many files *)
  l0_slowdown : int;  (** delay each write when L0 reaches this *)
  l0_stop : int;  (** block writes entirely at this many L0 files *)
  base_level_bytes : int;  (** L1 size target; Li = base * ratio^(i-1) *)
  level_ratio : float;
  max_levels : int;
  extent_pages : int;
  slowdown_us : float;  (** per-write delay in the slowdown regime *)
  compaction_credit_per_byte : float;
      (** background-thread bandwidth model: bytes of compaction I/O the
          single compaction thread gets per byte of application writes.
          When sustained demand (the write amplification) exceeds this,
          L0 piles up and the slowdown/stop thresholds fire — the write
          pauses of Figure 7 (right) *)
  resolver : Kv.Entry.resolver;
  seed : int;
}

let default_config =
  {
    memtable_bytes = 4 * 1024 * 1024;
    file_bytes = 2 * 1024 * 1024;
    l0_compaction_trigger = 4;
    l0_slowdown = 8;
    l0_stop = 12;
    base_level_bytes = 10 * 1024 * 1024;
    level_ratio = 10.0;
    max_levels = 7;
    extent_pages = 256;
    slowdown_us = 1000.0;
    compaction_credit_per_byte = 10.0;
    resolver = Kv.Entry.append_resolver;
    seed = 42;
  }

type file = {
  sst : Sstable.Reader.t;
  age : int;  (** creation order; L0 lookups go newest-first *)
}

type stats = {
  mutable flushes : int;
  mutable compactions : int;
  mutable slowdown_writes : int;
  mutable stop_stalls : int;
  mutable bytes_compacted : int;
}

type t = {
  config : config;
  store : Pagestore.Store.t;
  mutable mem : Memtable.t;
  levels : file list array;
      (** [levels.(0)]: newest first, ranges overlap; deeper levels:
          sorted by [min_key], disjoint ranges *)
  mutable next_age : int;
  policy : Blsm.Compaction_policy.t;
      (** victim selection, extracted to [Blsm.Compaction_policy]; the
          seed policy carries the per-level round-robin compaction
          pointer that used to live here *)
  mutable work_credit : float;  (** compaction bytes the thread may spend *)
  mutable timestamp : int;
  stats : stats;
  mutable metrics_cache : Obs.Metrics.t option;
  mutable chain : Blsm.Read_chain.t;
      (** memtable, L0 newest first, then one source per deeper level;
          rebuilt by [refresh_chain] at every flush and compaction *)
}

let make_chain config sources =
  Blsm.Read_chain.make ~resolver:config.resolver ~early_termination:true
    sources

let create ?(config = default_config) store =
  let mem = Memtable.create ~seed:config.seed ~resolver:config.resolver () in
  {
    config;
    store;
    mem;
    levels = Array.make config.max_levels [];
    next_age = 1;
    policy = Blsm.Compaction_policy.leveldb_seed ();
    work_credit = 0.0;
    timestamp = 0;
    stats =
      { flushes = 0; compactions = 0; slowdown_writes = 0; stop_stalls = 0;
        bytes_compacted = 0 };
    metrics_cache = None;
    chain = make_chain config [ Blsm.Read_chain.memtable mem ];
  }

let stats t = t.stats

(** [metrics t] is the engine's registry: the [leveldb.*] stats plus the
    store stack, as pull-closures over the live records. *)
let metrics t =
  match t.metrics_cache with
  | Some reg -> reg
  | None ->
      let reg = Obs.Metrics.create () in
      let open Obs.Metrics in
      let s = t.stats in
      counter reg "leveldb.flushes" ~help:"memtable flushes to L0" (fun () ->
          s.flushes);
      counter reg "leveldb.compactions" ~help:"compactions run" (fun () ->
          s.compactions);
      counter reg "leveldb.slowdown_writes" ~help:"writes hit by the L0 slowdown"
        (fun () -> s.slowdown_writes);
      counter reg "leveldb.stop_stalls" ~help:"writes hit by the L0 hard stop"
        (fun () -> s.stop_stalls);
      counter reg "leveldb.bytes_compacted" ~help:"lifetime compaction input bytes"
        (fun () -> s.bytes_compacted);
      gauge reg "leveldb.files" ~help:"table files across all levels" (fun () ->
          float_of_int
            (Array.fold_left (fun acc l -> acc + List.length l) 0 t.levels));
      Pagestore.Store.register_metrics reg t.store;
      t.metrics_cache <- Some reg;
      reg
let store t = t.store
let disk t = Pagestore.Store.disk t.store
let config t = t.config

let level_bytes t i =
  List.fold_left (fun a f -> a + Sstable.Reader.data_bytes f.sst) 0 t.levels.(i)

let file_count t i = List.length t.levels.(i)

(* Metadata snapshot for the compaction policy. List order matters for
   byte-identity: each level is presented exactly in storage order, so
   the policy's stable sorts and filters reproduce the pre-extraction
   selection bit for bit. *)
let policy_view t =
  {
    Blsm.Compaction_policy.v_levels =
      Array.mapi
        (fun level files ->
          List.map
            (fun f ->
              {
                Blsm.Compaction_policy.run_id = f.age;
                run_level = level;
                run_bytes = Sstable.Reader.data_bytes f.sst;
                run_records = Sstable.Reader.record_count f.sst;
                run_min_key = Sstable.Reader.min_key f.sst;
                run_max_key = Sstable.Reader.max_key f.sst;
              })
            files)
        t.levels;
    v_l0_trigger = t.config.l0_compaction_trigger;
    v_fanout = t.config.level_ratio;
    v_base_bytes = t.config.base_level_bytes;
    v_file_bytes = t.config.file_bytes;
    v_max_levels = t.config.max_levels;
  }

(* ---------------------------------------------------------------- *)
(* Building level files *)

(* Write a sorted record stream into files of at most [file_bytes] each. *)
let build_files ?file_bytes t pull =
  let file_bytes = Option.value file_bytes ~default:t.config.file_bytes in
  let out = ref [] in
  let current = ref None in
  let fresh () =
    let b = Sstable.Builder.create ~extent_pages:t.config.extent_pages t.store in
    current := Some b;
    b
  in
  let finish b =
    t.timestamp <- t.timestamp + 1;
    let footer = Sstable.Builder.finish b ~timestamp:t.timestamp in
    let index = Sstable.Builder.index_blob b in
    let sst = Sstable.Reader.open_in_ram t.store footer ~index in
    if Sstable.Reader.is_empty sst then Sstable.Reader.free sst
    else begin
      out := { sst; age = t.next_age } :: !out;
      t.next_age <- t.next_age + 1
    end;
    current := None
  in
  let rec go () =
    match pull () with
    | None -> ()
    | Some (k, e, lsn) ->
        let b = match !current with Some b -> b | None -> fresh () in
        Sstable.Builder.add ~lsn b k e;
        if Sstable.Builder.data_bytes b >= file_bytes then finish b;
        go ()
  in
  go ();
  (match !current with Some b -> finish b | None -> ());
  List.rev !out

let open_file ?from f () =
  let it = Sstable.Reader.iterator ?from f.sst in
  fun () -> Sstable.Reader.iter_next_full it

(* Concatenate the iterators of a disjoint, sorted file list. *)
let chain_files files = Blsm.Read_chain.chain (List.map (fun f -> open_file f) files)

let sort_by_min_key files =
  List.sort
    (fun a b -> String.compare (Sstable.Reader.min_key a.sst) (Sstable.Reader.min_key b.sst))
    files

(* A deeper level: key-disjoint files sorted by min key. A point read
   probes the one file whose range covers the key (LevelDB has no Bloom
   filters); a scan chains the files from the first that reaches it. *)
let level_source files =
  let covering key =
    List.find_opt
      (fun f ->
        String.compare (Sstable.Reader.min_key f.sst) key <= 0
        && String.compare key (Sstable.Reader.max_key f.sst) <= 0)
      files
  in
  {
    Blsm.Read_chain.probe =
      (fun key -> Option.bind (covering key) (fun f -> Sstable.Reader.get f.sst key));
    version =
      (fun key ->
        Option.bind (covering key) (fun f ->
            Option.map snd (Sstable.Reader.get_with_lsn f.sst key)));
    open_at =
      (fun from ->
        match
          List.filter
            (fun f -> String.compare (Sstable.Reader.max_key f.sst) from >= 0)
            files
        with
        | [] -> fun () -> None
        | first :: rest ->
            Blsm.Read_chain.chain
              (open_file ~from first :: List.map (fun f -> open_file f) rest));
  }

(* The read chain, newest first: memtable, every L0 file newest first
   (their ranges overlap), then one source per non-empty deeper level. *)
let refresh_chain t =
  let l0 =
    List.map
      (fun f ->
        Blsm.Read_chain.component Blsm.Read_chain.unguarded
          (Blsm.Component.of_sst f.sst))
      (List.sort (fun a b -> Int.compare b.age a.age) t.levels.(0))
  in
  let deeper =
    List.filter_map
      (fun files -> if files = [] then None else Some (level_source files))
      (List.tl (Array.to_list t.levels))
  in
  t.chain <- make_chain t.config ((Blsm.Read_chain.memtable t.mem :: l0) @ deeper)

let is_bottom_nonempty t level =
  (* no data below [level]: deletion markers can be dropped *)
  let rec empty_below i =
    i >= t.config.max_levels || (t.levels.(i) = [] && empty_below (i + 1))
  in
  empty_below (level + 1)

(* ---------------------------------------------------------------- *)
(* Flush: memtable -> one L0 file *)

let flush_mem t =
  if not (Memtable.is_empty t.mem) then begin
    (* one L0 file regardless of size: L0 files mirror memtable contents *)
    let files =
      build_files
        ~file_bytes:(max t.config.file_bytes (2 * t.config.memtable_bytes))
        t
        ((Blsm.Read_chain.memtable t.mem).open_at "")
    in
    t.levels.(0) <- files @ t.levels.(0);
    t.mem <- Memtable.create ~seed:t.config.seed ~resolver:t.config.resolver ();
    refresh_chain t;
    t.stats.flushes <- t.stats.flushes + 1;
    (* log entries are now durable in L0 *)
    let wal = Pagestore.Store.wal t.store in
    Pagestore.Wal.truncate wal ~upto_lsn:(Pagestore.Wal.next_lsn wal)
  end

(* ---------------------------------------------------------------- *)
(* Compaction: one unit of the partition scheduler. The policy decides
   *what* moves ({!Blsm.Compaction_policy}); this executes one of its
   jobs — merge mechanics, stats and install order are unchanged from
   the pre-extraction engine. *)

let execute_job t (job : Blsm.Compaction_policy.job) =
  let resolve level id =
    List.find (fun f -> f.age = id) t.levels.(level)
  in
  let inputs_lo = List.map (resolve job.j_level) job.j_inputs in
  let inputs_hi = List.map (resolve job.j_target) job.j_overlaps in
  if inputs_lo = [] then ()
  else begin
    (* newest-first priorities: overlapping input sets (level 0) by age,
       a single range-partitioned victim as one chained source *)
    let lo_sources =
      if List.length inputs_lo > 1 then
        inputs_lo
        |> List.sort (fun a b -> Int.compare b.age a.age)
        |> List.mapi (fun i f -> (i, open_file f ()))
      else [ (0, chain_files (sort_by_min_key inputs_lo)) ]
    in
    let n_lo = List.length lo_sources in
    let hi_source = (n_lo, chain_files (sort_by_min_key inputs_hi)) in
    let merge =
      Sstable.Merge_iter.create ~resolver:t.config.resolver
        ~drop_tombstones:(is_bottom_nonempty t job.j_target)
        (lo_sources @ [ hi_source ])
    in
    let file_bytes =
      if job.j_split_bytes > 0 then job.j_split_bytes else max_int
    in
    let outputs =
      build_files ~file_bytes t (fun () -> Sstable.Merge_iter.next merge)
    in
    let moved =
      List.fold_left (fun a f -> a + Sstable.Reader.data_bytes f.sst) 0 inputs_lo
      + List.fold_left (fun a f -> a + Sstable.Reader.data_bytes f.sst) 0 inputs_hi
    in
    t.stats.bytes_compacted <- t.stats.bytes_compacted + moved;
    t.work_credit <- t.work_credit -. float_of_int moved;
    t.stats.compactions <- t.stats.compactions + 1;
    (* install: remove inputs, add outputs to the target level *)
    let not_input inputs f = not (List.memq f inputs) in
    t.levels.(job.j_level) <-
      List.filter (not_input inputs_lo) t.levels.(job.j_level);
    t.levels.(job.j_target) <-
      sort_by_min_key
        (outputs @ List.filter (not_input inputs_hi) t.levels.(job.j_target));
    refresh_chain t;
    List.iter (fun f -> Sstable.Reader.free f.sst) inputs_lo;
    List.iter (fun f -> Sstable.Reader.free f.sst) inputs_hi
  end

(* ---------------------------------------------------------------- *)
(* Write path *)

let maybe_schedule_work t ~write_bytes =
  (* the background compaction thread gets a slice of disk bandwidth
     proportional to the write rate; its work is charged to the
     triggering write (it shares the disk with the application) *)
  t.work_credit <-
    Float.min
      (2.0 *. float_of_int t.config.base_level_bytes)
      (t.work_credit
      +. (float_of_int write_bytes *. t.config.compaction_credit_per_byte));
  if file_count t 0 >= t.config.l0_stop then begin
    (* hard stop: writes blocked until L0 drains below the trigger *)
    t.stats.stop_stalls <- t.stats.stop_stalls + 1;
    while file_count t 0 > t.config.l0_compaction_trigger do
      match t.policy.p_job_at (policy_view t) ~level:0 with
      | Some job -> execute_job t job
      | None -> failwith "leveldb: L0 over trigger but policy idle"
    done;
    t.work_credit <- 0.0
  end
  else begin
    if file_count t 0 >= t.config.l0_slowdown then begin
      t.stats.slowdown_writes <- t.stats.slowdown_writes + 1;
      (* the 1 ms write delay is disk time the compaction thread uses *)
      Simdisk.Disk.advance (disk t) t.config.slowdown_us;
      t.work_credit <-
        t.work_credit
        +. (t.config.slowdown_us /. 1e6
           *. (Simdisk.Disk.profile (disk t)).Simdisk.Profile.write_mb_per_s
           *. 1e6)
    end;
    if t.work_credit > 0.0 then
      match t.policy.p_pick (policy_view t) with
      | Some job -> execute_job t job
      | None -> ()
  end

let encode_op key entry =
  let buf = Buffer.create (String.length key + 16) in
  Repro_util.Varint.write buf (String.length key);
  Buffer.add_string buf key;
  Kv.Entry.encode buf entry;
  Buffer.contents buf

let write_entry t key entry =
  maybe_schedule_work t
    ~write_bytes:(String.length key + Kv.Entry.payload_bytes entry);
  let lsn = Pagestore.Wal.append (Pagestore.Store.wal t.store) (encode_op key entry) in
  Memtable.write t.mem ~lsn key entry;
  if Memtable.bytes t.mem >= t.config.memtable_bytes then flush_mem t

let put t key value = write_entry t key (Kv.Entry.Base value)
let delete t key = write_entry t key Kv.Entry.Tombstone
let apply_delta t key d = write_entry t key (Kv.Entry.Delta [ d ])

(* ---------------------------------------------------------------- *)
(* Read path *)

let get t key = Blsm.Read_chain.get t.chain key

let read_modify_write t key f =
  Blsm.Read_chain.read_modify_write t.chain key f ~write:(put t)

(** LevelDB has no filters: the existence check pays the full multi-level
    probe — the paper's §5.2 complaint about checked bulk loads. *)
let insert_if_absent t key value =
  Blsm.Read_chain.insert_if_absent t.chain key value ~write:(put t)

let scan t start n = Blsm.Read_chain.scan t.chain start n

(* ---------------------------------------------------------------- *)

(** [maintenance t] flushes and compacts until every level is in shape. *)
let maintenance t =
  flush_mem t;
  let guard = ref 0 in
  let rec go () =
    incr guard;
    if !guard > 100_000 then failwith "leveldb maintenance stuck";
    match t.policy.p_pick (policy_view t) with
    | Some job ->
        execute_job t job;
        go ()
    | None -> ()
  in
  go ()

type level_info = { li_level : int; li_files : int; li_bytes : int }

let levels t =
  List.init t.config.max_levels (fun i ->
      { li_level = i; li_files = file_count t i; li_bytes = level_bytes t i })

(** Seeks a cold point read would perform right now (Table 1's metric). *)
let read_cost_estimate t key =
  let l0 =
    List.length
      (List.filter
         (fun f ->
           String.compare (Sstable.Reader.min_key f.sst) key <= 0
           && String.compare key (Sstable.Reader.max_key f.sst) <= 0)
         t.levels.(0))
  in
  let deeper = ref 0 in
  for i = 1 to t.config.max_levels - 1 do
    if t.levels.(i) <> [] then incr deeper
  done;
  l0 + !deeper

let engine ?(name = "LevelDB") t =
  {
    Kv.Kv_intf.name;
    disk = disk t;
    get = (fun k -> get t k);
    put = (fun k v -> put t k v);
    delete = (fun k -> delete t k);
    apply_delta = (fun k d -> apply_delta t k d);
    read_modify_write = (fun k f -> read_modify_write t k f);
    insert_if_absent = (fun k v -> insert_if_absent t k v);
    scan = (fun start n -> scan t start n);
    maintenance = (fun () -> maintenance t);
  }
