(* SSTable tests: build/lookup/iterate roundtrips, records spanning pages,
   extent chaining, index reopen from disk, seek accounting, and the k-way
   merging iterator's shadowing semantics. *)

let check = Alcotest.check

let entry_testable = Alcotest.testable Kv.Entry.pp Kv.Entry.equal

let mk_store ?(buffer_pages = 64) ?(page_size = 256) () =
  Pagestore.Store.create
    ~config:
      {
        Pagestore.Store.cfg_page_size = page_size;
        cfg_buffer_pages = buffer_pages;
        cfg_durability = Pagestore.Wal.Full;
      }
    Simdisk.Profile.hdd_raid0

let build store ?(format = Sstable.Sst_format.V1) ?(extent_pages = 8)
    ?(timestamp = 1) records =
  let b = Sstable.Builder.create ~format ~extent_pages store in
  List.iter (fun (k, e) -> Sstable.Builder.add b k e) records;
  let footer = Sstable.Builder.finish b ~timestamp in
  let index = Sstable.Builder.index_blob b in
  Sstable.Reader.open_in_ram store footer ~index

let records_of_iter it =
  let rec go acc =
    match Sstable.Reader.iter_next it with
    | None -> List.rev acc
    | Some r -> go (r :: acc)
  in
  go []

let test_build_and_get () =
  let store = mk_store () in
  let records =
    List.init 100 (fun i -> (Printf.sprintf "key%04d" i, Kv.Entry.Base (Printf.sprintf "val%d" i)))
  in
  let sst = build store records in
  check Alcotest.int "record count" 100 (Sstable.Reader.record_count sst);
  List.iter
    (fun (k, e) ->
      check (Alcotest.option entry_testable) k (Some e) (Sstable.Reader.get sst k))
    records;
  check (Alcotest.option entry_testable) "absent" None
    (Sstable.Reader.get sst "key5000");
  check (Alcotest.option entry_testable) "below range" None
    (Sstable.Reader.get sst "aaa");
  check (Alcotest.option entry_testable) "between keys" None
    (Sstable.Reader.get sst "key0042x")

let test_iteration_full () =
  let store = mk_store () in
  let records =
    List.init 50 (fun i -> (Printf.sprintf "k%03d" i, Kv.Entry.Base (string_of_int i)))
  in
  let sst = build store records in
  check Alcotest.int "all records" 50
    (List.length (records_of_iter (Sstable.Reader.iterator sst)));
  let out = records_of_iter (Sstable.Reader.iterator sst) in
  List.iter2
    (fun (k, e) (k', e') ->
      check Alcotest.string "key order" k k';
      check entry_testable "entry" e e')
    records out

let test_iteration_from () =
  let store = mk_store () in
  let records =
    List.init 50 (fun i -> (Printf.sprintf "k%03d" i, Kv.Entry.Base "v"))
  in
  let sst = build store records in
  let out = records_of_iter (Sstable.Reader.iterator ~from:"k025" sst) in
  check Alcotest.int "25 remaining" 25 (List.length out);
  check Alcotest.string "starts at k025" "k025" (fst (List.hd out));
  (* from between keys *)
  let out = records_of_iter (Sstable.Reader.iterator ~from:"k025x" sst) in
  check Alcotest.string "next key" "k026" (fst (List.hd out));
  (* from before all keys *)
  let out = records_of_iter (Sstable.Reader.iterator ~from:"a" sst) in
  check Alcotest.int "everything" 50 (List.length out);
  (* from past the end *)
  let out = records_of_iter (Sstable.Reader.iterator ~from:"z" sst) in
  check Alcotest.int "nothing" 0 (List.length out)

let test_records_spanning_pages () =
  (* 256-byte pages, 1000-byte values: every record spans ~4 pages *)
  let store = mk_store ~page_size:256 () in
  let records =
    List.init 20 (fun i ->
        (Printf.sprintf "key%02d" i, Kv.Entry.Base (String.make 1000 (Char.chr (65 + i)))))
  in
  let sst = build store records in
  List.iter
    (fun (k, e) ->
      check (Alcotest.option entry_testable) k (Some e) (Sstable.Reader.get sst k))
    records;
  let out = records_of_iter (Sstable.Reader.iterator sst) in
  check Alcotest.int "iteration count" 20 (List.length out)

let test_record_larger_than_extent () =
  (* a single record bigger than one extent exercises extent chaining mid-record *)
  let store = mk_store ~page_size:256 () in
  let big = String.make 5000 'x' in
  let sst = build store ~extent_pages:4 [ ("k", Kv.Entry.Base big) ] in
  check (Alcotest.option entry_testable) "big record" (Some (Kv.Entry.Base big))
    (Sstable.Reader.get sst "k")

let test_empty_component () =
  let store = mk_store () in
  let sst = build store [] in
  check Alcotest.bool "empty" true (Sstable.Reader.is_empty sst);
  check (Alcotest.option entry_testable) "get on empty" None
    (Sstable.Reader.get sst "k");
  check Alcotest.int "iter on empty" 0
    (List.length (records_of_iter (Sstable.Reader.iterator sst)))

let test_mixed_entry_kinds () =
  let store = mk_store () in
  let records =
    [
      ("a", Kv.Entry.Base "va");
      ("b", Kv.Entry.Tombstone);
      ("c", Kv.Entry.Delta [ "d1"; "d2" ]);
    ]
  in
  let sst = build store records in
  List.iter
    (fun (k, e) ->
      check (Alcotest.option entry_testable) k (Some e) (Sstable.Reader.get sst k))
    records

let test_builder_rejects_unsorted () =
  let store = mk_store () in
  let b = Sstable.Builder.create ~extent_pages:4 store in
  Sstable.Builder.add b "m" (Kv.Entry.Base "v");
  (match Sstable.Builder.add b "a" (Kv.Entry.Base "v") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected unsorted rejection");
  match Sstable.Builder.add b "m" (Kv.Entry.Base "v") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected duplicate rejection"

let test_reopen_from_meta () =
  let store = mk_store () in
  let records =
    List.init 200 (fun i -> (Printf.sprintf "key%05d" i, Kv.Entry.Base (String.make 50 'v')))
  in
  let sst = build store records in
  let blob = Sstable.Reader.meta_blob sst in
  (* simulate restart: reopen purely from the metadata blob *)
  Pagestore.Store.crash store;
  let sst' = Sstable.Reader.of_meta store blob in
  check Alcotest.int "count preserved" 200 (Sstable.Reader.record_count sst');
  List.iter
    (fun (k, e) ->
      check (Alcotest.option entry_testable) k (Some e) (Sstable.Reader.get sst' k))
    records

let test_point_lookup_seek_cost () =
  let store = mk_store ~page_size:4096 ~buffer_pages:2 () in
  let records =
    List.init 1000 (fun i ->
        (Printf.sprintf "key%06d" i, Kv.Entry.Base (String.make 1000 'v')))
  in
  let sst = build store ~extent_pages:64 records in
  let disk = Pagestore.Store.disk store in
  (* cold, scattered lookups: one seek each; continuation pages for records
     spanning a boundary are charged as sequential transfers, not seeks *)
  let before = Simdisk.Disk.snapshot disk in
  let n = 30 in
  for i = 0 to n - 1 do
    ignore (Sstable.Reader.get sst (Printf.sprintf "key%06d" (i * 29)))
  done;
  let d = Simdisk.Disk.diff before (Simdisk.Disk.snapshot disk) in
  if d.Simdisk.Disk.seeks < n - 2 || d.Simdisk.Disk.seeks > n + 2 then
    Alcotest.failf "expected ~%d seeks, got %d" n d.Simdisk.Disk.seeks

let test_free_releases_space () =
  let store = mk_store () in
  let records = List.init 100 (fun i -> (Printf.sprintf "k%04d" i, Kv.Entry.Base (String.make 100 'v'))) in
  let sst = build store records in
  let before = Pagestore.Store.stored_bytes store in
  Sstable.Reader.free sst;
  if Pagestore.Store.stored_bytes store >= before then
    Alcotest.fail "free did not reclaim space"

(* ------------------------------------------------------------------ *)
(* Restart points (derived in-page record-start offsets) *)

let test_restart_offsets_roundtrip () =
  (* Derived starts must agree with a linear decode of the raw page:
     count = the n_starts header, offsets strictly increasing, first one
     just past the continuation bytes. *)
  let store = mk_store ~page_size:256 () in
  let records =
    List.init 120 (fun i ->
        ( Printf.sprintf "key%04d" i,
          Kv.Entry.Base (String.make (7 + (i * 13 mod 90)) 'v') ))
  in
  let sst = build store records in
  let footer = Sstable.Reader.footer sst in
  let buf = Bytes.create 256 in
  List.iter
    (fun (start, length) ->
      for id = start to start + length - 1 do
        Pagestore.Store.read_page_direct store id buf;
        if Sstable.Sst_format.page_ok_bytes buf then begin
          let n_starts =
            Char.code (Bytes.get buf 0) lor (Char.code (Bytes.get buf 1) lsl 8)
          in
          let cont =
            Char.code (Bytes.get buf 2)
            lor (Char.code (Bytes.get buf 3) lsl 8)
            lor (Char.code (Bytes.get buf 4) lsl 16)
            lor (Char.code (Bytes.get buf 5) lsl 24)
          in
          let starts = Sstable.Sst_format.record_starts ~page:id buf in
          check Alcotest.int "starts = n_starts header" n_starts
            (Array.length starts);
          if n_starts > 0 then
            check Alcotest.int "first start after continuation"
              (Sstable.Sst_format.header_bytes + cont)
              starts.(0);
          Array.iteri
            (fun i s ->
              if i > 0 && s <= starts.(i - 1) then
                Alcotest.failf "starts not increasing at %d" i;
              if s < Sstable.Sst_format.header_bytes || s >= 256 then
                Alcotest.failf "start %d out of page bounds" s)
            starts
        end
      done)
    footer.Sstable.Sst_format.extents;
  ignore (Sstable.Reader.get sst "key0000")

let test_restart_corruption_detected () =
  (* Flip a bit in the first record's body-length varint — the byte the
     restart walk navigates by. The page CRC must catch it at frame load:
     a typed Corrupt, never a silent mis-navigation. *)
  let store = mk_store ~page_size:4096 ~buffer_pages:8 () in
  let records =
    List.init 300 (fun i ->
        (Printf.sprintf "key%06d" i, Kv.Entry.Base (String.make 50 'v')))
  in
  let sst = build store records in
  (* Warm lookups work. *)
  check Alcotest.bool "warm get" true (Sstable.Reader.get sst "key000100" <> None);
  let footer = Sstable.Reader.footer sst in
  let first_page = fst (List.hd footer.Sstable.Sst_format.extents) in
  (* Drop the pool so the next access re-loads the rotted platter copy. *)
  Pagestore.Store.crash store;
  ignore
    (Pagestore.Store.corrupt_page store first_page ~byte:Sstable.Sst_format.header_bytes
       ~bit:3);
  (match Sstable.Reader.get sst "key000000" with
  | exception Sstable.Sst_format.Corrupt _ -> ()
  | Some _ -> Alcotest.fail "lookup decoded a corrupted page"
  | None -> Alcotest.fail "corruption silently mis-navigated to a miss");
  (* The n_starts header itself (restart count) is covered too. *)
  Pagestore.Store.crash store;
  ignore (Pagestore.Store.corrupt_page store first_page ~byte:0 ~bit:0);
  match Sstable.Reader.get sst "key000000" with
  | exception Sstable.Sst_format.Corrupt _ -> ()
  | _ -> Alcotest.fail "header corruption not detected"

let test_record_starts_names_page () =
  (* A CRC-resealed page whose header record count overruns its payload
     passes the checksum; the record-start walk must then raise Corrupt
     naming the platter page, so the engine reports where the rot is. *)
  let store = mk_store ~page_size:4096 ~buffer_pages:8 () in
  let records =
    List.init 100 (fun i ->
        (Printf.sprintf "key%06d" i, Kv.Entry.Base (String.make 50 'v')))
  in
  let sst = build store records in
  let footer = Sstable.Reader.footer sst in
  let first = fst (List.hd footer.Sstable.Sst_format.extents) in
  Pagestore.Store.with_page_mut store first (fun b ->
      Bytes.set b 0 '\xff';
      Bytes.set b 1 '\x7f';
      Sstable.Sst_format.seal_page b);
  match Sstable.Reader.get sst "key000001" with
  | exception Sstable.Sst_format.Corrupt { what; page } ->
      check Alcotest.string "what" "record start walk" what;
      check Alcotest.int "names the platter page" first page
  | _ -> Alcotest.fail "overrunning record count not detected"

let test_pool_hit_get_alloc () =
  (* A warm V1 lookup allocates the entry it returns and at most 8 words
     of verdict, option and decode result around it: no closures, tuples
     or boxed probes on the fence, pool-hit or in-page search path. The
     median get is held to that; the few records that spill into the
     next page take the linear stream path and may allocate more. *)
  let store = mk_store ~page_size:4096 ~buffer_pages:256 () in
  let n = 2_000 in
  let key i = Printf.sprintf "key%08d" i in
  let sst =
    build store ~extent_pages:256
      (List.init n (fun i -> (key i, Kv.Entry.Base (String.make 100 'v'))))
  in
  let probes = Array.init n (fun i -> key (i * 7919 mod n)) in
  Array.iter (fun k -> ignore (Sstable.Reader.get sst k)) probes;
  let entry_words =
    match Sstable.Reader.get sst probes.(0) with
    | Some e -> Obj.reachable_words (Obj.repr e)
    | None -> Alcotest.fail "warm get missed"
  in
  let measure f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let overhead = measure ignore in
  let words =
    Array.map
      (fun k ->
        measure (fun () ->
            if Sstable.Reader.get sst k = None then
              Alcotest.failf "warm get of %s missed" k)
        -. overhead)
      probes
  in
  Array.sort Float.compare words;
  let median = words.(n / 2) in
  if median > float_of_int (entry_words + 8) then
    Alcotest.failf "pool-hit get allocates %.1f words (entry %d + 8 allowed)"
      median entry_words

let test_truncated_mid_record_is_typed_corrupt () =
  (* Regression for a real find of lint rule E001: when the data pages
     end inside a record body (truncated table), the reader's internal
     End_of_component record-boundary exception used to leak through
     the cursor — across the replication and DST protocol boundaries —
     instead of the typed Corrupt the scan contract declares. *)
  let store = mk_store () in
  (* One record whose body spans several 256-byte pages, so a footer
     one page short ends mid-body. *)
  let big = String.make 700 'v' in
  let b =
    Sstable.Builder.create ~format:Sstable.Sst_format.V1 ~extent_pages:4 store
  in
  Sstable.Builder.add b "k" (Kv.Entry.Base big);
  let footer = Sstable.Builder.finish b ~timestamp:1 in
  let index = Sstable.Builder.index_blob b in
  let truncated =
    {
      footer with
      Sstable.Sst_format.data_pages = footer.Sstable.Sst_format.data_pages - 1;
    }
  in
  match
    let sst = Sstable.Reader.open_in_ram store truncated ~index in
    records_of_iter (Sstable.Reader.iterator sst)
  with
  | exception Sstable.Sst_format.Corrupt _ -> ()
  | exception e ->
      Alcotest.failf "internal exception leaked: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "truncated table iterated cleanly"

let test_verified_once_semantics () =
  (* While the frame sits verified in the pool, lookups skip the CRC; the
     check runs again at the load after a crash drops the pool — platter
     rot is caught exactly where it can first be observed. *)
  let store = mk_store ~page_size:4096 ~buffer_pages:8 () in
  let records =
    List.init 100 (fun i ->
        (Printf.sprintf "key%06d" i, Kv.Entry.Base (String.make 40 'v')))
  in
  let sst = build store records in
  check Alcotest.bool "cold get" true (Sstable.Reader.get sst "key000001" <> None);
  let footer = Sstable.Reader.footer sst in
  let first_page = fst (List.hd footer.Sstable.Sst_format.extents) in
  ignore (Pagestore.Store.corrupt_page store first_page ~byte:100 ~bit:1);
  (* Pool hit: the resident frame is still the good copy. *)
  check Alcotest.bool "hit ignores platter rot" true
    (Sstable.Reader.get sst "key000001" <> None);
  Pagestore.Store.crash store;
  match Sstable.Reader.get sst "key000001" with
  | exception Sstable.Sst_format.Corrupt _ -> ()
  | _ -> Alcotest.fail "reload did not re-verify"

let test_tiny_pool_pin_release () =
  (* Lookups and closed iterators must release their pins: thousands of
     operations through a 2-frame pool would otherwise exhaust it. *)
  let store = mk_store ~page_size:256 ~buffer_pages:2 () in
  let records =
    List.init 200 (fun i ->
        (Printf.sprintf "key%04d" i, Kv.Entry.Base (String.make 300 'v')))
  in
  let sst = build store records in
  for round = 0 to 4 do
    List.iteri
      (fun i (k, e) ->
        ignore round;
        if i mod 3 = 0 then
          check (Alcotest.option entry_testable) k (Some e)
            (Sstable.Reader.get sst k))
      records;
    (* Abandon a cached iterator mid-stream; close must unpin. *)
    let it = Sstable.Reader.cached_iterator ~from:"key0050" sst in
    ignore (Sstable.Reader.iter_next it);
    Sstable.Reader.iter_close it;
    Sstable.Reader.iter_close it (* idempotent *)
  done

let mk_prop_get_equals_linear ~name ~format =
  (* The indexed search (restart binary search in V1, restart search plus
     prefix reconstruction and zone maps in V2) must be observationally
     identical to the seed's linear decode — for present keys, absent keys
     between records, and keys off both ends — across record mixes that
     exercise page spills (128-byte pages, values up to 300 bytes). *)
  QCheck.Test.make ~name ~count:60
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 100) (pair (int_range 0 9999) (int_range 0 300)))
        (list_of_size Gen.(1 -- 40) (int_range 0 9999)))
    (fun (pairs, probes) ->
      let module M = Map.Make (String) in
      let m =
        List.fold_left
          (fun m (k, vlen) ->
            M.add
              (Printf.sprintf "key%05d" k)
              (Kv.Entry.Base (String.make vlen 'v'))
              m)
          M.empty pairs
      in
      let records = M.bindings m in
      let store = mk_store ~page_size:128 () in
      let sst = build store ~format ~extent_pages:4 records in
      let agree key =
        Sstable.Reader.get sst key = Sstable.Reader.get_linear sst key
        && Sstable.Reader.get_with_lsn sst key
           = Sstable.Reader.get_linear_with_lsn sst key
        && Sstable.Reader.locate sst key = Sstable.Reader.locate_linear sst key
      in
      List.for_all (fun (k, _) -> agree k) records
      && List.for_all
           (fun p ->
             (* probe keys hit present records, gaps, and both ends *)
             agree (Printf.sprintf "key%05d" p)
             && agree (Printf.sprintf "key%05dx" p))
           probes
      && agree "" && agree "zzz")

let prop_restart_get_equals_linear =
  mk_prop_get_equals_linear ~name:"restart get = linear get"
    ~format:Sstable.Sst_format.V1

let mk_prop_roundtrip ~name ~format =
  QCheck.Test.make ~name ~count:60
    QCheck.(
      list_of_size
        Gen.(1 -- 100)
        (pair (int_range 0 9999) (int_range 0 300)))
    (fun pairs ->
      let module M = Map.Make (String) in
      let m =
        List.fold_left
          (fun m (k, vlen) ->
            M.add (Printf.sprintf "key%05d" k) (Kv.Entry.Base (String.make vlen 'v')) m)
          M.empty pairs
      in
      let records = M.bindings m in
      let store = mk_store ~page_size:128 () in
      let sst = build store ~format ~extent_pages:4 records in
      let out = records_of_iter (Sstable.Reader.iterator sst) in
      out = records
      && List.for_all
           (fun (k, e) -> Sstable.Reader.get sst k = Some e)
           records)

let prop_roundtrip =
  mk_prop_roundtrip ~name:"sstable build/iterate roundtrip"
    ~format:Sstable.Sst_format.V1

(* ------------------------------------------------------------------ *)
(* V2 pages: prefix compression, zone maps, Eytzinger fence pointers *)

let v2 = Sstable.Sst_format.V2

let prop_v2_get_equals_linear =
  mk_prop_get_equals_linear ~name:"v2 get = linear get" ~format:v2

let prop_v2_roundtrip = mk_prop_roundtrip ~name:"v2 build/iterate roundtrip" ~format:v2

let prop_fence_locate_equals_linear =
  (* The branch-free Eytzinger descent must agree with the in-order
     linear walk on every probe, and the slot traversal must reproduce
     the sorted input — including the empty fence. *)
  QCheck.Test.make ~name:"fence locate = locate_linear" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 80) (int_range 0 999))
        (list_of_size Gen.(1 -- 30) (int_range 0 999)))
    (fun (ks, probes) ->
      let module S = Set.Make (String) in
      let keys =
        Array.of_list
          (S.elements (S.of_list (List.map (Printf.sprintf "k%03d") ks)))
      in
      let pos = Array.mapi (fun i _ -> i * 3) keys in
      let f = Sstable.Sst_format.Fence.of_sorted ~keys ~pos () in
      let open Sstable.Sst_format.Fence in
      let agree k = locate f k = locate_linear f k in
      let rec walk acc = function
        | None -> List.rev acc
        | Some s -> walk (key f s :: acc) (succ_slot f s)
      in
      walk [] (first_slot f) = Array.to_list keys
      && Array.for_all agree keys
      && List.for_all
           (fun p ->
             agree (Printf.sprintf "k%03d" p) && agree (Printf.sprintf "k%03dq" p))
           probes
      && agree "" && agree "zzzz")

let read_varint s off =
  let rec go off shift acc =
    let b = Char.code s.[off] in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b >= 0x80 then go (off + 1) (shift + 7) acc else (acc, off + 1)
  in
  go off 0 0

let v2_roundtrip_one ~prev key entry lsn =
  let buf = Buffer.create 64 in
  Sstable.Sst_format.encode_record_v2 buf ~prev key ~lsn entry;
  let s = Buffer.contents buf in
  let body_len, off = read_varint s 0 in
  if off + body_len <> String.length s then failwith "framing length mismatch";
  Sstable.Sst_format.decode_body_at V2 ~prev s off ~len:body_len

let prop_v2_body_roundtrip =
  (* encode_record_v2/decode_body_at over a tiny alphabet so shared
     prefixes of every length (0 .. full key) occur, empty strings
     included. *)
  let gen =
    QCheck.Gen.(
      let k = string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (0 -- 10) in
      quad k k (0 -- 60) (0 -- 5000))
  in
  QCheck.Test.make ~name:"v2 body roundtrip (prefix compression)" ~count:400
    (QCheck.make gen)
    (fun (prev, key, vlen, lsn) ->
      let entry =
        if vlen = 0 then Kv.Entry.Tombstone else Kv.Entry.Base (String.make vlen 'v')
      in
      v2_roundtrip_one ~prev key entry lsn = (key, entry, lsn))

let test_v2_prefix_edge_cases () =
  let rt ~prev key entry lsn =
    let k', e', l' = v2_roundtrip_one ~prev key entry lsn in
    check Alcotest.string "key" key k';
    check entry_testable "entry" entry e';
    check Alcotest.int "lsn" lsn l'
  in
  rt ~prev:"" "" Kv.Entry.Tombstone 0;
  rt ~prev:"" "key0000" (Kv.Entry.Base "v") 1;
  (* shared prefix equals the whole key: suffix is empty *)
  rt ~prev:"key0042" "key0042" (Kv.Entry.Base "x") 7;
  rt ~prev:"key0042" "key0042x" (Kv.Entry.Base "y") 8;
  (* key is a proper prefix of prev *)
  rt ~prev:"key0042x" "key0099" (Kv.Entry.Delta [ "d" ]) 9;
  rt ~prev:"abc" "abd" (Kv.Entry.Base "") 0;
  (* a rotted shared-length varint (> |prev|) must raise, not fabricate *)
  let buf = Buffer.create 16 in
  Sstable.Sst_format.encode_record_v2 buf ~prev:"abcdef" "abcdefg" ~lsn:0
    (Kv.Entry.Base "v");
  let s = Buffer.contents buf in
  let body_len, off = read_varint s 0 in
  match Sstable.Sst_format.decode_body_at V2 ~prev:"ab" s off ~len:body_len with
  | exception Sstable.Sst_format.Corrupt _ -> ()
  | _ -> Alcotest.fail "oversized shared length not detected"

(* ---- copy-free record encode/decode --------------------------------- *)

(* The seed's two-buffer encoders, kept as the reference: the body goes
   into its own buffer first, then its length and the body into [buf].
   The in-place encoders must write exactly these bytes. *)
let ref_shared_prefix a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && Char.equal a.[i] b.[i] then go (i + 1) else i in
  go 0

let ref_encode ~format ~prev key ~lsn entry =
  let module V = Repro_util.Varint in
  let body = Buffer.create 16 in
  (match (format : Sstable.Sst_format.version) with
  | V1 ->
      V.write body (String.length key);
      Buffer.add_string body key
  | V2 ->
      let shared = ref_shared_prefix prev key in
      V.write body shared;
      V.write body (String.length key - shared);
      Buffer.add_substring body key shared (String.length key - shared));
  V.write body lsn;
  Kv.Entry.encode body entry;
  let buf = Buffer.create 64 in
  V.write buf (Buffer.length body);
  Buffer.add_buffer buf body;
  Buffer.contents buf

let encode ~format ~prev key ~lsn entry =
  let buf = Buffer.create 64 in
  (match (format : Sstable.Sst_format.version) with
  | V1 -> Sstable.Sst_format.encode_record buf key ~lsn entry
  | V2 -> Sstable.Sst_format.encode_record_v2 buf ~prev key ~lsn entry);
  Buffer.contents buf

let varint_edges = [ 0; 1; 126; 127; 128; 129; 16382; 16383; 16384; 16385 ]

let prop_encode_bytes_unchanged =
  let open QCheck.Gen in
  let len = oneof [ oneofl varint_edges; 0 -- 300 ] in
  let str n = string_size ~gen:char (return n) in
  let key =
    oneof
      [ string_size ~gen:(oneofl [ 'a'; 'b' ]) (0 -- 12);
        (oneofl [ 127; 128; 129 ] >>= str) ]
  in
  let entry =
    frequency
      [ (1, return Kv.Entry.Tombstone);
        (3, map (fun v -> Kv.Entry.Base v) (len >>= str));
        (2, map (fun ds -> Kv.Entry.Delta ds) (list_size (2 -- 4) (len >>= str)))
      ]
  in
  let lsn =
    oneof
      [ oneofl [ 0; 1; 127; 128; 16383; 16384; 2097151; 2097152 ];
        int_bound (1 lsl 40) ]
  in
  QCheck.Test.make ~name:"in-place encoders = two-buffer reference" ~count:500
    (QCheck.make
       ~print:(fun (prev, k, lsn, e) ->
         Format.asprintf "prev=%S key=%S lsn=%d %a" prev k lsn Kv.Entry.pp e)
       (quad key key lsn entry))
    (fun (prev, key, lsn, entry) ->
      List.for_all
        (fun format ->
          String.equal
            (encode ~format ~prev key ~lsn entry)
            (ref_encode ~format ~prev key ~lsn entry))
        [ Sstable.Sst_format.V1; V2 ])

(* Sweep value lengths so the body-length varint itself crosses both of
   its size boundaries (127/128 and 16383/16384), in both formats. *)
let test_encode_body_len_edges () =
  List.iter
    (fun format ->
      let seen = Hashtbl.create 256 in
      let sweep lo hi =
        for vlen = lo to hi do
          let entry = Kv.Entry.Base (String.make vlen 'v') in
          let got = encode ~format ~prev:"key00" "key0042" ~lsn:5 entry in
          check Alcotest.string
            (Printf.sprintf "vlen %d" vlen)
            (ref_encode ~format ~prev:"key00" "key0042" ~lsn:5 entry)
            got;
          Hashtbl.replace seen (fst (Repro_util.Varint.read got 0)) ()
        done
      in
      sweep 90 140;
      sweep 16340 16390;
      List.iter
        (fun b ->
          if not (Hashtbl.mem seen b) then
            Alcotest.failf "body length %d never produced" b)
        [ 127; 128; 16383; 16384 ])
    [ Sstable.Sst_format.V1; V2 ]

(* Fields that end before or after the declared body length are
   corruption, whether the bytes after the body are readable (in-page
   decode) or not (a copied-out body). *)
let test_decode_overrun_is_corrupt () =
  let expect_corrupt what f =
    match f () with
    | exception Sstable.Sst_format.Corrupt _ -> ()
    | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
    | _ -> Alcotest.failf "%s: decoded" what
  in
  List.iter
    (fun format ->
      let s =
        encode ~format ~prev:"" "key0042" ~lsn:9
          (Kv.Entry.Base (String.make 300 'v'))
        ^ "trailing bytes of the next record"
      in
      let body_len, off = Repro_util.Varint.read s 0 in
      let decode s ~len () =
        Sstable.Sst_format.decode_body_at format ~prev:"" s off ~len
      in
      let k, _, lsn = decode s ~len:body_len () in
      check Alcotest.string "intact key" "key0042" k;
      check Alcotest.int "intact lsn" 9 lsn;
      expect_corrupt "short length, in page" (decode s ~len:(body_len - 1));
      expect_corrupt "long length, in page" (decode s ~len:(body_len + 1));
      expect_corrupt "short length, copied body"
        (decode (String.sub s 0 (off + body_len - 1)) ~len:(body_len - 1));
      (* a key length far past the body *)
      let huge = Bytes.of_string s in
      Bytes.set huge off '\xff';
      Bytes.set huge (off + 1) '\x7f';
      expect_corrupt "huge key length"
        (decode (Bytes.to_string huge) ~len:body_len))
    [ Sstable.Sst_format.V1; V2 ]

(* A component of 1000 B records in 4 KiB pages whose layout puts records
   on every boundary the reader handles: a body that lies wholly in a
   page and ends exactly at its end, a body-length varint that ends
   exactly at a page end, and one split across two pages. Keys start
   with distinct bytes, so V2 never shares a prefix and a record's framed
   length does not depend on its neighbour. *)
let boundary_records ~format ~page_size =
  let payload = Sstable.Sst_format.payload_capacity ~page_size in
  let off = ref 0 (* stream offset of the next record *) in
  let framed k vlen =
    String.length
      (encode ~format ~prev:"" k ~lsn:0 (Kv.Entry.Base (String.make vlen 'v')))
  in
  List.init 24 (fun i ->
      let k = Printf.sprintf "%c-key%04d" (Char.chr (Char.code 'A' + i)) i in
      (* residue of the stream offset just past this record *)
      let want =
        match i with
        | 5 -> Some 0 (* body ends at the page end *)
        | 11 -> Some (payload - 2) (* next 2-byte varint ends at page end *)
        | 17 -> Some (payload - 1) (* next varint split across pages *)
        | _ -> None
      in
      let rec pick vlen =
        match want with
        | Some r when (!off + framed k vlen) mod payload <> r -> pick (vlen + 1)
        | _ -> vlen
      in
      let vlen = pick 1000 in
      if i = 5 && !off / payload <> (!off + framed k vlen - 1) / payload then
        Alcotest.fail "layout: record 5 does not lie in one page";
      off := !off + framed k vlen;
      (k, Kv.Entry.Base (String.init vlen (fun j -> Char.chr ((i + j) land 0xff)))))

let test_reader_page_boundaries () =
  let page_size = 4096 in
  List.iter
    (fun format ->
      let store = mk_store ~page_size ~buffer_pages:4 () in
      let records = boundary_records ~format ~page_size in
      let sst = build store ~format ~extent_pages:64 records in
      (* The builder laid the records out contiguously across the page
         payloads, so the boundaries planned above are the real ones. *)
      let footer = Sstable.Reader.footer sst in
      let stream = Buffer.create (64 * page_size) in
      let page = Bytes.create page_size in
      let first = fst (List.hd footer.Sstable.Sst_format.extents) in
      for p = 0 to footer.Sstable.Sst_format.data_pages - 1 do
        Pagestore.Store.read_page_direct store (first + p) page;
        Buffer.add_subbytes stream page Sstable.Sst_format.header_bytes
          (page_size - Sstable.Sst_format.header_bytes)
      done;
      let expected =
        String.concat ""
          (List.map
             (fun (k, e) -> encode ~format ~prev:"" k ~lsn:0 e)
             records)
      in
      check Alcotest.string "page payloads"
        expected
        (Buffer.sub stream 0 (String.length expected));
      let same what got =
        check Alcotest.int (what ^ " count") (List.length records)
          (List.length got);
        List.iter2
          (fun (k, e) (k', e') ->
            check Alcotest.string (what ^ " key") k k';
            check entry_testable (what ^ " " ^ k) e e')
          records got
      in
      same "streaming" (records_of_iter (Sstable.Reader.iterator sst));
      same "cached" (records_of_iter (Sstable.Reader.cached_iterator sst));
      List.iter
        (fun (k, e) ->
          check (Alcotest.option entry_testable) ("get " ^ k) (Some e)
            (Sstable.Reader.get sst k))
        records;
      (* Declare the first record's body one byte shorter than its fields
         and reseal the page: the in-place decode must report corruption. *)
      Pagestore.Store.with_page_mut store first (fun b ->
          let h = Sstable.Sst_format.header_bytes in
          let len, _ = Repro_util.Varint.read_bytes b h in
          Bytes.set b h (Char.chr (0x80 lor ((len - 1) land 0x7f)));
          Bytes.set b (h + 1) (Char.chr ((len - 1) lsr 7));
          Sstable.Sst_format.seal_page b);
      match records_of_iter (Sstable.Reader.cached_iterator sst) with
      | exception Sstable.Sst_format.Corrupt _ -> ()
      | exception e ->
          Alcotest.failf "overrun raised %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "overrun decoded")
    [ Sstable.Sst_format.V1; V2 ]

let test_v2_build_and_get () =
  let store = mk_store () in
  let records =
    List.init 100 (fun i ->
        (Printf.sprintf "key%04d" i, Kv.Entry.Base (Printf.sprintf "val%d" i)))
  in
  let sst = build store ~format:v2 records in
  check Alcotest.int "record count" 100 (Sstable.Reader.record_count sst);
  List.iter
    (fun (k, e) ->
      check (Alcotest.option entry_testable) k (Some e) (Sstable.Reader.get sst k))
    records;
  check (Alcotest.option entry_testable) "absent" None (Sstable.Reader.get sst "key5000");
  check (Alcotest.option entry_testable) "below range" None (Sstable.Reader.get sst "aaa");
  check (Alcotest.option entry_testable) "between keys" None
    (Sstable.Reader.get sst "key0042x")

let test_v2_spanning_pages () =
  (* 256-byte pages, 1000-byte values: every record spans ~4 pages, so
     prefix chains restart across spills *)
  let store = mk_store ~page_size:256 () in
  let records =
    List.init 20 (fun i ->
        (Printf.sprintf "key%02d" i, Kv.Entry.Base (String.make 1000 (Char.chr (65 + i)))))
  in
  let sst = build store ~format:v2 records in
  List.iter
    (fun (k, e) ->
      check (Alcotest.option entry_testable) k (Some e) (Sstable.Reader.get sst k))
    records;
  check Alcotest.int "iteration count" 20
    (List.length (records_of_iter (Sstable.Reader.iterator sst)))

let test_v2_iteration_from () =
  let store = mk_store () in
  let records = List.init 50 (fun i -> (Printf.sprintf "k%03d" i, Kv.Entry.Base "v")) in
  let sst = build store ~format:v2 records in
  let out = records_of_iter (Sstable.Reader.iterator ~from:"k025" sst) in
  check Alcotest.int "25 remaining" 25 (List.length out);
  check Alcotest.string "starts at k025" "k025" (fst (List.hd out));
  let out = records_of_iter (Sstable.Reader.iterator ~from:"k025x" sst) in
  check Alcotest.string "next key" "k026" (fst (List.hd out));
  let out = records_of_iter (Sstable.Reader.iterator ~from:"a" sst) in
  check Alcotest.int "everything" 50 (List.length out);
  let out = records_of_iter (Sstable.Reader.iterator ~from:"z" sst) in
  check Alcotest.int "nothing" 0 (List.length out)

let test_v2_reopen_from_meta () =
  let store = mk_store () in
  let records =
    List.init 200 (fun i -> (Printf.sprintf "key%05d" i, Kv.Entry.Base (String.make 50 'v')))
  in
  let sst = build store ~format:v2 records in
  let blob = Sstable.Reader.meta_blob sst in
  Pagestore.Store.crash store;
  let sst' = Sstable.Reader.of_meta store blob in
  let f = Sstable.Reader.footer sst' in
  check Alcotest.bool "SST2 magic survives reopen" true
    (f.Sstable.Sst_format.version = v2);
  check Alcotest.int "count preserved" 200 (Sstable.Reader.record_count sst');
  List.iter
    (fun (k, e) ->
      check (Alcotest.option entry_testable) k (Some e) (Sstable.Reader.get sst' k))
    records

let read_bytes_of d =
  d.Simdisk.Disk.seq_read_bytes + d.Simdisk.Disk.random_read_bytes

let test_v2_zone_map_miss_zero_io () =
  (* A point miss whose key sorts after its floor page's zone max is
     answered from the in-RAM fence alone: no page read even cold. *)
  let store = mk_store ~page_size:256 ~buffer_pages:4 () in
  let records =
    List.init 200 (fun i ->
        (Printf.sprintf "key%04d" (i * 2), Kv.Entry.Base (String.make 40 'v')))
  in
  let sst = build store ~format:v2 records in
  let rejected =
    List.filter_map
      (fun (k, _) ->
        let p = k ^ "!" in
        if Sstable.Reader.locate sst p < 0 then Some p else None)
      records
  in
  (* every page's last key generates one such probe *)
  if List.length rejected < 3 then
    Alcotest.failf "expected zone-rejected probes, got %d" (List.length rejected);
  List.iter
    (fun p ->
      check Alcotest.int ("linear agrees on " ^ p) (-1)
        (Sstable.Reader.locate_linear sst p))
    rejected;
  Pagestore.Store.crash store;
  let disk = Pagestore.Store.disk store in
  let before = Simdisk.Disk.snapshot disk in
  List.iter
    (fun p -> check (Alcotest.option entry_testable) p None (Sstable.Reader.get sst p))
    rejected;
  let d = Simdisk.Disk.diff before (Simdisk.Disk.snapshot disk) in
  check Alcotest.int "zero bytes read" 0 (read_bytes_of d)

let test_v2_scan_zone_skip_bytes () =
  (* A tail scan must not pay for the pages the fence lets it skip:
     cold bytes-read for the last 10 records is a small fraction of a
     cold full scan. *)
  let store = mk_store ~page_size:256 ~buffer_pages:4 () in
  let records =
    List.init 300 (fun i ->
        (Printf.sprintf "key%04d" i, Kv.Entry.Base (String.make 60 'v')))
  in
  let sst = build store ~format:v2 records in
  let disk = Pagestore.Store.disk store in
  Pagestore.Store.crash store;
  let before = Simdisk.Disk.snapshot disk in
  let out = records_of_iter (Sstable.Reader.iterator ~from:"key0289x" sst) in
  check Alcotest.int "tail records" 10 (List.length out);
  let tail = read_bytes_of (Simdisk.Disk.diff before (Simdisk.Disk.snapshot disk)) in
  Pagestore.Store.crash store;
  let before = Simdisk.Disk.snapshot disk in
  let all = records_of_iter (Sstable.Reader.iterator sst) in
  check Alcotest.int "all records" 300 (List.length all);
  let full = read_bytes_of (Simdisk.Disk.diff before (Simdisk.Disk.snapshot disk)) in
  if tail * 5 > full then
    Alcotest.failf "tail scan read %d bytes vs full scan %d" tail full

(* -------------------------------------------------------------------- *)
(* Merge iterator *)

let pull_of_list l =
  let r = ref l in
  fun () ->
    match !r with
    | [] -> None
    | x :: rest ->
        r := rest;
        Some x

let resolver = Kv.Entry.append_resolver

(* sources feed (key, entry, lsn=0); results compared as pairs *)
let merge_all ~drop inputs =
  let inputs =
    List.map
      (fun (p, pull) ->
        ( p,
          fun () ->
            match pull () with Some (k, e) -> Some (k, e, 0) | None -> None ))
      inputs
  in
  let m = Sstable.Merge_iter.create ~resolver ~drop_tombstones:drop inputs in
  let out = ref [] in
  Sstable.Merge_iter.drain m (fun k e _ -> out := (k, e) :: !out);
  List.rev !out

let test_merge_shadowing () =
  let newer = [ ("a", Kv.Entry.Base "new"); ("c", Kv.Entry.Base "c1") ] in
  let older = [ ("a", Kv.Entry.Base "old"); ("b", Kv.Entry.Base "b1") ] in
  let out =
    merge_all ~drop:false [ (0, pull_of_list newer); (1, pull_of_list older) ]
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string entry_testable))
    "shadowed merge"
    [ ("a", Kv.Entry.Base "new"); ("b", Kv.Entry.Base "b1"); ("c", Kv.Entry.Base "c1") ]
    out

let test_merge_tombstone_dropped_at_bottom () =
  let newer = [ ("a", Kv.Entry.Tombstone) ] in
  let older = [ ("a", Kv.Entry.Base "old"); ("b", Kv.Entry.Base "b1") ] in
  let out = merge_all ~drop:true [ (0, pull_of_list newer); (1, pull_of_list older) ] in
  check Alcotest.int "tombstone elided" 1 (List.length out);
  check Alcotest.string "b survives" "b" (fst (List.hd out))

let test_merge_tombstone_kept_mid_tree () =
  let newer = [ ("a", Kv.Entry.Tombstone) ] in
  let older = [ ("a", Kv.Entry.Base "old") ] in
  let out = merge_all ~drop:false [ (0, pull_of_list newer); (1, pull_of_list older) ] in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string entry_testable))
    "tombstone persists" [ ("a", Kv.Entry.Tombstone) ] out

let test_merge_delta_resolution_at_bottom () =
  let newer = [ ("a", Kv.Entry.Delta [ "+d" ]) ] in
  let out = merge_all ~drop:true [ (0, pull_of_list newer) ] in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string entry_testable))
    "orphan delta becomes base" [ ("a", Kv.Entry.Base "+d") ] out

let test_merge_three_way () =
  let c0 = [ ("k", Kv.Entry.Delta [ "+2" ]) ] in
  let c1 = [ ("k", Kv.Entry.Delta [ "+1" ]) ] in
  let c2 = [ ("k", Kv.Entry.Base "base") ] in
  let out =
    merge_all ~drop:true
      [ (0, pull_of_list c0); (1, pull_of_list c1); (2, pull_of_list c2) ]
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string entry_testable))
    "deltas apply oldest-first" [ ("k", Kv.Entry.Base "base+1+2") ] out

let prop_merge_equals_map_union =
  (* merging random sorted streams equals right-biased map union where the
     lower priority stream wins (all Base entries) *)
  QCheck.Test.make ~name:"merge = shadowed union" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 50) (int_range 0 99))
        (list_of_size Gen.(0 -- 50) (int_range 0 99)))
    (fun (ks1, ks2) ->
      let module M = Map.Make (String) in
      let mk tag ks =
        List.fold_left
          (fun m k -> M.add (Printf.sprintf "%02d" k) (Kv.Entry.Base (tag ^ string_of_int k)) m)
          M.empty ks
      in
      let m1 = mk "new" ks1 and m2 = mk "old" ks2 in
      let expected = M.union (fun _ a _ -> Some a) m1 m2 in
      let out =
        merge_all ~drop:false
          [ (0, pull_of_list (M.bindings m1)); (1, pull_of_list (M.bindings m2)) ]
      in
      out = M.bindings expected)

let () =
  Alcotest.run "sstable"
    [
      ( "reader",
        [
          Alcotest.test_case "build and get" `Quick test_build_and_get;
          Alcotest.test_case "iterate full" `Quick test_iteration_full;
          Alcotest.test_case "iterate from" `Quick test_iteration_from;
          Alcotest.test_case "spanning pages" `Quick test_records_spanning_pages;
          Alcotest.test_case "bigger than extent" `Quick test_record_larger_than_extent;
          Alcotest.test_case "empty component" `Quick test_empty_component;
          Alcotest.test_case "mixed entries" `Quick test_mixed_entry_kinds;
          Alcotest.test_case "unsorted rejected" `Quick test_builder_rejects_unsorted;
          Alcotest.test_case "reopen from meta" `Quick test_reopen_from_meta;
          Alcotest.test_case "lookup seek cost" `Quick test_point_lookup_seek_cost;
          Alcotest.test_case "free releases space" `Quick test_free_releases_space;
          QCheck_alcotest.to_alcotest prop_roundtrip;
        ] );
      ( "restarts",
        [
          Alcotest.test_case "offsets roundtrip" `Quick
            test_restart_offsets_roundtrip;
          Alcotest.test_case "corruption detected" `Quick
            test_restart_corruption_detected;
          Alcotest.test_case "truncated mid-record" `Quick
            test_truncated_mid_record_is_typed_corrupt;
          Alcotest.test_case "record starts name the page" `Quick
            test_record_starts_names_page;
          Alcotest.test_case "pool-hit get allocation" `Quick
            test_pool_hit_get_alloc;
          Alcotest.test_case "verified once" `Quick test_verified_once_semantics;
          Alcotest.test_case "tiny pool pins" `Quick test_tiny_pool_pin_release;
          QCheck_alcotest.to_alcotest prop_restart_get_equals_linear;
        ] );
      ( "v2",
        [
          Alcotest.test_case "build and get" `Quick test_v2_build_and_get;
          Alcotest.test_case "spanning pages" `Quick test_v2_spanning_pages;
          Alcotest.test_case "iterate from" `Quick test_v2_iteration_from;
          Alcotest.test_case "reopen from meta" `Quick test_v2_reopen_from_meta;
          Alcotest.test_case "prefix edge cases" `Quick test_v2_prefix_edge_cases;
          QCheck_alcotest.to_alcotest prop_encode_bytes_unchanged;
          Alcotest.test_case "body length edges" `Quick
            test_encode_body_len_edges;
          Alcotest.test_case "decode overrun corrupt" `Quick
            test_decode_overrun_is_corrupt;
          Alcotest.test_case "reader page boundaries" `Quick
            test_reader_page_boundaries;
          Alcotest.test_case "zone map miss zero io" `Quick
            test_v2_zone_map_miss_zero_io;
          Alcotest.test_case "scan zone skip bytes" `Quick
            test_v2_scan_zone_skip_bytes;
          QCheck_alcotest.to_alcotest prop_fence_locate_equals_linear;
          QCheck_alcotest.to_alcotest prop_v2_body_roundtrip;
          QCheck_alcotest.to_alcotest prop_v2_get_equals_linear;
          QCheck_alcotest.to_alcotest prop_v2_roundtrip;
        ] );
      ( "merge_iter",
        [
          Alcotest.test_case "shadowing" `Quick test_merge_shadowing;
          Alcotest.test_case "tombstone dropped" `Quick test_merge_tombstone_dropped_at_bottom;
          Alcotest.test_case "tombstone kept" `Quick test_merge_tombstone_kept_mid_tree;
          Alcotest.test_case "orphan delta" `Quick test_merge_delta_resolution_at_bottom;
          Alcotest.test_case "three way" `Quick test_merge_three_way;
          QCheck_alcotest.to_alcotest prop_merge_equals_map_union;
        ] );
    ]
