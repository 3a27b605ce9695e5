(* Tests for the pagestore substrate: region allocator, platter, buffer
   manager (CLOCK), WAL, store streams, and crash semantics. *)

let check = Alcotest.check

let mk_store ?(buffer_pages = 8) ?(page_size = 256) () =
  Pagestore.Store.create
    ~config:
      {
        Pagestore.Store.cfg_page_size = page_size;
        cfg_buffer_pages = buffer_pages;
        cfg_durability = Pagestore.Wal.Full;
      }
    Simdisk.Profile.hdd_raid0

(* -------------------------------------------------------------------- *)
(* Region allocator *)

let test_alloc_contiguous () =
  let a = Pagestore.Region_allocator.create () in
  let r1 = Pagestore.Region_allocator.allocate a 10 in
  let r2 = Pagestore.Region_allocator.allocate a 5 in
  check Alcotest.int "r1 start" 0 r1.Pagestore.Region_allocator.start;
  check Alcotest.int "r1 len" 10 r1.Pagestore.Region_allocator.length;
  check Alcotest.int "r2 after r1" 10 r2.Pagestore.Region_allocator.start;
  check Alcotest.int "allocated" 15 (Pagestore.Region_allocator.allocated_pages a)

let test_alloc_reuse_after_free () =
  let a = Pagestore.Region_allocator.create () in
  let r1 = Pagestore.Region_allocator.allocate a 10 in
  let _r2 = Pagestore.Region_allocator.allocate a 10 in
  Pagestore.Region_allocator.free a r1;
  let r3 = Pagestore.Region_allocator.allocate a 8 in
  check Alcotest.int "reuses freed space" 0 r3.Pagestore.Region_allocator.start

let test_alloc_coalesce () =
  let a = Pagestore.Region_allocator.create () in
  let r1 = Pagestore.Region_allocator.allocate a 5 in
  let r2 = Pagestore.Region_allocator.allocate a 5 in
  let _r3 = Pagestore.Region_allocator.allocate a 5 in
  Pagestore.Region_allocator.free a r1;
  Pagestore.Region_allocator.free a r2;
  (* coalesced into one run of 10 *)
  let r4 = Pagestore.Region_allocator.allocate a 10 in
  check Alcotest.int "coalesced alloc" 0 r4.Pagestore.Region_allocator.start

let test_alloc_free_pages_accounting () =
  let a = Pagestore.Region_allocator.create () in
  let r1 = Pagestore.Region_allocator.allocate a 7 in
  Pagestore.Region_allocator.free a r1;
  check Alcotest.int "free pages" 7 (Pagestore.Region_allocator.free_pages a);
  check Alcotest.int "allocated" 0 (Pagestore.Region_allocator.allocated_pages a)

let test_alloc_rejects_empty () =
  let a = Pagestore.Region_allocator.create () in
  (match Pagestore.Region_allocator.allocate a 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument")

let prop_alloc_no_overlap =
  QCheck.Test.make ~name:"allocated regions never overlap" ~count:200
    QCheck.(list_of_size Gen.(1 -- 40) (int_range 1 20))
    (fun sizes ->
      let a = Pagestore.Region_allocator.create () in
      let regions = List.map (Pagestore.Region_allocator.allocate a) sizes in
      (* pairwise disjoint *)
      let rec disjoint = function
        | [] -> true
        | (r : Pagestore.Region_allocator.region) :: rest ->
            List.for_all
              (fun (s : Pagestore.Region_allocator.region) ->
                r.start + r.length <= s.start || s.start + s.length <= r.start)
              rest
            && disjoint rest
      in
      disjoint regions)

let prop_alloc_free_alloc_cycles =
  QCheck.Test.make ~name:"free/alloc cycles conserve accounting" ~count:100
    QCheck.(list_of_size Gen.(1 -- 30) (int_range 1 10))
    (fun sizes ->
      let a = Pagestore.Region_allocator.create () in
      let regions = List.map (Pagestore.Region_allocator.allocate a) sizes in
      List.iter (Pagestore.Region_allocator.free a) regions;
      Pagestore.Region_allocator.allocated_pages a = 0)

(* -------------------------------------------------------------------- *)
(* Platter *)

let test_platter_roundtrip () =
  let p = Pagestore.Platter.create ~page_size:64 in
  let src = Bytes.make 64 'x' in
  Pagestore.Platter.write p 3 src;
  let dst = Bytes.create 64 in
  Pagestore.Platter.read p 3 dst;
  check Alcotest.bytes "roundtrip" src dst

let test_platter_absent_reads_zero () =
  let p = Pagestore.Platter.create ~page_size:16 in
  let dst = Bytes.make 16 'q' in
  Pagestore.Platter.read p 99 dst;
  check Alcotest.bytes "zeroed" (Bytes.make 16 '\000') dst

let test_platter_write_isolated () =
  (* mutating the source after write must not affect the stored copy *)
  let p = Pagestore.Platter.create ~page_size:8 in
  let src = Bytes.make 8 'a' in
  Pagestore.Platter.write p 0 src;
  Bytes.fill src 0 8 'b';
  let dst = Bytes.create 8 in
  Pagestore.Platter.read p 0 dst;
  check Alcotest.bytes "isolated" (Bytes.make 8 'a') dst

(* The platter against a Map model. Page ids cover several 16-page
   chunks (first and last page of a chunk among them) and ids far past
   the rest; whole-chunk drops send chunks to the spare list, so later
   writes reuse them. After every step every id reads as the model says
   (zeroes when dropped or never written), [stored_pages] matches, and a
   [corrupt] call is false on an absent page and otherwise flips exactly
   the one bit it names. *)
module IMap = Map.Make (Int)

let platter_ids = [ 0; 1; 15; 16; 17; 31; 32; 47; 63; 64; 100; 159; 1000; 70_000 ]

let prop_platter_model =
  let ps = 24 in
  let gen_op =
    QCheck.Gen.(
      map3
        (fun op id (byte, bit) -> (op, id, byte, bit))
        (int_range 0 5)
        (oneofl platter_ids)
        (pair (int_range 0 (ps - 1)) (int_range 0 7)))
  in
  QCheck.Test.make ~name:"platter vs Map model" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list (quad int int int int))
       QCheck.Gen.(list_size (1 -- 120) gen_op))
    (fun ops ->
      let p = Pagestore.Platter.create ~page_size:ps in
      let m = ref IMap.empty in
      let read id =
        let dst = Bytes.make ps 'q' in
        Pagestore.Platter.read p id dst;
        dst
      in
      List.iteri
        (fun step (op, id, byte, bit) ->
          (match op with
          | 0 | 1 ->
              let src =
                Bytes.init ps (fun j -> Char.chr (((step * 7) + (j * 13) + id) land 0xFF))
              in
              Pagestore.Platter.write p id src;
              m := IMap.add id (Bytes.copy src) !m
          | 2 ->
              Pagestore.Platter.drop p id;
              m := IMap.remove id !m
          | 3 ->
              (* free the page's whole chunk, as a freed region would *)
              let base = id / 16 * 16 in
              for j = base to base + 15 do
                Pagestore.Platter.drop p j;
                m := IMap.remove j !m
              done
          | 4 -> (
              let before = read id in
              let flipped = Pagestore.Platter.corrupt p id ~byte ~bit in
              match IMap.find_opt id !m with
              | None ->
                  if flipped then
                    QCheck.Test.fail_reportf "step %d: corrupt absent %d" step id
              | Some b ->
                  if not flipped then
                    QCheck.Test.fail_reportf "step %d: corrupt %d refused" step id;
                  let after = read id in
                  for j = 0 to ps - 1 do
                    let d = Char.code (Bytes.get before j) lxor Char.code (Bytes.get after j) in
                    if d <> (if j = byte then 1 lsl bit else 0) then
                      QCheck.Test.fail_reportf "step %d: corrupt %d byte %d" step id j
                  done;
                  Bytes.set b byte (Bytes.get after byte))
          | _ -> ignore (read id));
          List.iter
            (fun id ->
              let expect =
                match IMap.find_opt id !m with
                | Some b -> b
                | None -> Bytes.make ps '\000'
              in
              if not (Bytes.equal (read id) expect) then
                QCheck.Test.fail_reportf "step %d: page %d <> model" step id)
            platter_ids;
          if Pagestore.Platter.stored_pages p <> IMap.cardinal !m then
            QCheck.Test.fail_reportf "step %d: stored_pages" step;
          if Pagestore.Platter.stored_bytes p <> ps * IMap.cardinal !m then
            QCheck.Test.fail_reportf "step %d: stored_bytes" step)
        ops;
      true)

(* -------------------------------------------------------------------- *)
(* Buffer manager *)

let test_buffer_caches_hot_page () =
  let store = mk_store ~buffer_pages:4 () in
  let disk = Pagestore.Store.disk store in
  Pagestore.Store.with_page_mut store 0 (fun b -> Bytes.set b 0 'z');
  let before = Simdisk.Disk.snapshot disk in
  for _ = 1 to 10 do
    Pagestore.Store.with_page store 0 (fun b ->
        check Alcotest.char "cached value" 'z' (Bytes.get b 0))
  done;
  let after = Simdisk.Disk.snapshot disk in
  check Alcotest.int "no seeks for cached page" 0
    (Simdisk.Disk.diff before after).Simdisk.Disk.seeks

let test_buffer_eviction_writes_back () =
  let store = mk_store ~buffer_pages:2 () in
  Pagestore.Store.with_page_mut store 0 (fun b -> Bytes.set b 0 'a');
  (* touch enough pages to evict page 0 *)
  for id = 1 to 5 do
    Pagestore.Store.with_page store id (fun _ -> ())
  done;
  (* read back through a fresh miss: must see the written value *)
  Pagestore.Store.with_page store 0 (fun b ->
      check Alcotest.char "written back" 'a' (Bytes.get b 0))

let test_buffer_miss_costs_seek () =
  let store = mk_store ~buffer_pages:2 () in
  let disk = Pagestore.Store.disk store in
  let before = Simdisk.Disk.snapshot disk in
  Pagestore.Store.with_page store 42 (fun _ -> ());
  let after = Simdisk.Disk.snapshot disk in
  check Alcotest.int "one seek" 1 (Simdisk.Disk.diff before after).Simdisk.Disk.seeks

let test_buffer_crash_loses_dirty () =
  let store = mk_store ~buffer_pages:4 () in
  Pagestore.Store.with_page_mut store 7 (fun b -> Bytes.set b 0 'd');
  Pagestore.Store.crash store;
  Pagestore.Store.with_page store 7 (fun b ->
      check Alcotest.char "dirty page lost" '\000' (Bytes.get b 0))

let test_buffer_force_survives_crash () =
  let store = mk_store ~buffer_pages:4 () in
  Pagestore.Store.with_page_mut store 7 (fun b -> Bytes.set b 0 'd');
  Pagestore.Buffer_manager.force (Pagestore.Store.buffer store) 7;
  Pagestore.Store.crash store;
  Pagestore.Store.with_page store 7 (fun b ->
      check Alcotest.char "forced page survives" 'd' (Bytes.get b 0))

let test_buffer_flush_all () =
  let store = mk_store ~buffer_pages:8 () in
  for id = 0 to 5 do
    Pagestore.Store.with_page_mut store id (fun b -> Bytes.set b 0 'f')
  done;
  Pagestore.Buffer_manager.flush_all (Pagestore.Store.buffer store);
  Pagestore.Store.crash store;
  for id = 0 to 5 do
    Pagestore.Store.with_page store id (fun b ->
        check Alcotest.char "flushed" 'f' (Bytes.get b 0))
  done

let test_buffer_clock_keeps_referenced () =
  (* A page touched on every round should stay resident while a one-shot
     page gets evicted. *)
  let store = mk_store ~buffer_pages:3 () in
  let bm = Pagestore.Store.buffer store in
  Pagestore.Store.with_page store 100 (fun _ -> ());
  for id = 0 to 19 do
    Pagestore.Store.with_page store 100 (fun _ -> ());
    Pagestore.Store.with_page store id (fun _ -> ())
  done;
  let misses_before = Pagestore.Buffer_manager.misses bm in
  Pagestore.Store.with_page store 100 (fun _ -> ());
  check Alcotest.int "hot page still cached" misses_before
    (Pagestore.Buffer_manager.misses bm)

(* Model-based: random reads/writes/forces/crashes through the buffer
   manager must agree with a reference model of (platter, dirty-cache)
   state; cache transparency is the invariant. *)
let prop_buffer_model =
  QCheck.Test.make ~name:"buffer manager vs reference model" ~count:100
    (QCheck.make
       QCheck.Gen.(
         list_size (1 -- 120)
           (oneof
              [
                map2 (fun p v -> `Write (p mod 12, v)) small_nat (0 -- 255);
                map (fun p -> `Read (p mod 12)) small_nat;
                map (fun p -> `Force (p mod 12)) small_nat;
                return `Flush;
                return `Crash;
              ])))
    (fun ops ->
      let store = mk_store ~buffer_pages:3 ~page_size:32 () in
      (* model: durable.(p) = platter byte0; cached.(p) = dirty value *)
      let durable = Array.make 12 0 in
      let cached = Array.make 12 None in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | `Write (p, v) ->
              Pagestore.Store.with_page_mut store p (fun b ->
                  Bytes.set b 0 (Char.chr v));
              cached.(p) <- Some v
          | `Read p ->
              let expected = Option.value cached.(p) ~default:durable.(p) in
              Pagestore.Store.with_page store p (fun b ->
                  if Char.code (Bytes.get b 0) <> expected then ok := false)
          | `Force p ->
              Pagestore.Buffer_manager.force (Pagestore.Store.buffer store) p;
              (* force persists only if the page is still cached; eviction
                 may have persisted it already. Either way, if it was ever
                 dirty its latest value is now durable or still cached:
                 conservatively sync the model by reading back later. *)
              (match cached.(p) with
              | Some v ->
                  durable.(p) <- v
                  (* it may remain cached clean; value unchanged *)
              | None -> ())
          | `Flush ->
              Pagestore.Buffer_manager.flush_all (Pagestore.Store.buffer store);
              Array.iteri
                (fun p v ->
                  match v with
                  | Some value ->
                      durable.(p) <- value;
                      cached.(p) <- Some value (* stays cached, now clean *)
                  | None -> ())
                cached
          | `Crash ->
              (* dirty state not yet evicted/forced may be lost - but our
                 model cannot see evictions, which persist dirty pages
                 early. After a crash the observable value is whatever the
                 platter has: either durable.(p) or a later value evicted
                 behind our back. To keep the model exact we flush before
                 crashing in this test. *)
              Pagestore.Buffer_manager.flush_all (Pagestore.Store.buffer store);
              Array.iteri
                (fun p v ->
                  match v with
                  | Some value ->
                      durable.(p) <- value;
                      cached.(p) <- None
                  | None -> cached.(p) <- None)
                cached;
              Pagestore.Store.crash store)
        ops;
      (* final: every page reads back as the model predicts *)
      Array.iteri
        (fun p _ ->
          let expected = Option.value cached.(p) ~default:durable.(p) in
          Pagestore.Store.with_page store p (fun b ->
              if Char.code (Bytes.get b 0) <> expected then ok := false))
        durable;
      !ok)

(* Space accounting: freeing components returns platter space; repeated
   build/free cycles must not grow the store (no leak). *)
let test_no_space_leak () =
  let store = mk_store ~page_size:256 () in
  let build () =
    let region = Pagestore.Store.allocate_region store ~pages:16 in
    let ws = Pagestore.Store.open_write_stream store region in
    for _ = 1 to 16 do
      ignore (Pagestore.Store.stream_write ws (Bytes.make 256 'x'))
    done;
    region
  in
  let r0 = build () in
  let high = Pagestore.Store.stored_bytes store in
  Pagestore.Store.free_region store r0;
  for _ = 1 to 20 do
    let r = build () in
    if Pagestore.Store.stored_bytes store > high then
      Alcotest.fail "platter space grew across build/free cycles";
    Pagestore.Store.free_region store r
  done

(* -------------------------------------------------------------------- *)
(* WAL *)

let test_wal_append_replay () =
  let disk = Simdisk.Disk.create Simdisk.Profile.hdd_raid0 in
  let wal = Pagestore.Wal.create disk in
  let l1 = Pagestore.Wal.append wal "one" in
  let _l2 = Pagestore.Wal.append wal "two" in
  let l3 = Pagestore.Wal.append wal "three" in
  check Alcotest.int "lsn monotone" (l1 + 2) l3;
  let seen = ref [] in
  Pagestore.Wal.replay wal ~from_lsn:0 (fun _ p -> seen := p :: !seen);
  check (Alcotest.list Alcotest.string) "replay order" [ "one"; "two"; "three" ]
    (List.rev !seen)

let test_wal_truncate () =
  let disk = Simdisk.Disk.create Simdisk.Profile.hdd_raid0 in
  let wal = Pagestore.Wal.create disk in
  let _ = Pagestore.Wal.append wal "a" in
  let l2 = Pagestore.Wal.append wal "b" in
  let _ = Pagestore.Wal.append wal "c" in
  Pagestore.Wal.truncate wal ~upto_lsn:l2;
  let seen = ref [] in
  Pagestore.Wal.replay wal ~from_lsn:0 (fun _ p -> seen := p :: !seen);
  check (Alcotest.list Alcotest.string) "only suffix" [ "b"; "c" ]
    (List.rev !seen)

let test_wal_replay_from_lsn () =
  let disk = Simdisk.Disk.create Simdisk.Profile.hdd_raid0 in
  let wal = Pagestore.Wal.create disk in
  let _ = Pagestore.Wal.append wal "a" in
  let l2 = Pagestore.Wal.append wal "b" in
  let seen = ref 0 in
  Pagestore.Wal.replay wal ~from_lsn:l2 (fun _ _ -> incr seen);
  check Alcotest.int "partial replay" 1 !seen

let test_wal_none_durability_drops () =
  let disk = Simdisk.Disk.create Simdisk.Profile.hdd_raid0 in
  let wal = Pagestore.Wal.create ~durability:Pagestore.Wal.None_ disk in
  let _ = Pagestore.Wal.append wal "lost" in
  let seen = ref 0 in
  Pagestore.Wal.replay wal ~from_lsn:0 (fun _ _ -> incr seen);
  check Alcotest.int "nothing logged" 0 !seen

let test_wal_size_accounting () =
  let disk = Simdisk.Disk.create Simdisk.Profile.hdd_raid0 in
  let wal = Pagestore.Wal.create disk in
  let _ = Pagestore.Wal.append wal (String.make 100 'x') in
  if Pagestore.Wal.size_bytes wal < 100 then Alcotest.fail "size too small";
  Pagestore.Wal.truncate wal ~upto_lsn:(Pagestore.Wal.next_lsn wal);
  check Alcotest.int "empty after truncate" 0 (Pagestore.Wal.size_bytes wal)

(* -------------------------------------------------------------------- *)
(* Store streams *)

let test_stream_write_read () =
  let store = mk_store ~page_size:128 () in
  let region = Pagestore.Store.allocate_region store ~pages:4 in
  let ws = Pagestore.Store.open_write_stream store region in
  for i = 0 to 3 do
    let page = Bytes.make 128 (Char.chr (65 + i)) in
    ignore (Pagestore.Store.stream_write ws page)
  done;
  let rs =
    Pagestore.Store.open_read_stream store
      ~start:region.Pagestore.Region_allocator.start ~length:4
  in
  let count = ref 0 in
  let rec go () =
    match Pagestore.Store.stream_read rs with
    | None -> ()
    | Some b ->
        check Alcotest.char "page content" (Char.chr (65 + !count)) (Bytes.get b 0);
        incr count;
        go ()
  in
  go ();
  check Alcotest.int "pages read" 4 !count

let test_stream_costs_are_sequential () =
  let store = mk_store ~page_size:4096 () in
  let disk = Pagestore.Store.disk store in
  let region = Pagestore.Store.allocate_region store ~pages:100 in
  let ws = Pagestore.Store.open_write_stream store region in
  let before = Simdisk.Disk.snapshot disk in
  let page = Bytes.make 4096 'p' in
  for _ = 1 to 100 do
    ignore (Pagestore.Store.stream_write ws page)
  done;
  let d = Simdisk.Disk.diff before (Simdisk.Disk.snapshot disk) in
  (* one positioning write, rest sequential *)
  check Alcotest.int "one random write" 1 d.Simdisk.Disk.random_writes;
  check Alcotest.int "rest sequential" (99 * 4096) d.Simdisk.Disk.seq_write_bytes

let test_stream_overflow_rejected () =
  let store = mk_store () in
  let region = Pagestore.Store.allocate_region store ~pages:1 in
  let ws = Pagestore.Store.open_write_stream store region in
  let page = Bytes.make 256 'x' in
  ignore (Pagestore.Store.stream_write ws page);
  (match Pagestore.Store.stream_write ws page with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected overflow failure")

let test_commit_root_roundtrip () =
  let store = mk_store () in
  Pagestore.Store.commit_root store "metadata-blob-v1";
  Pagestore.Store.crash store;
  check Alcotest.string "root survives crash" "metadata-blob-v1"
    (Pagestore.Store.read_root store)

let test_free_region_drops_pages () =
  let store = mk_store () in
  let region = Pagestore.Store.allocate_region store ~pages:2 in
  let ws = Pagestore.Store.open_write_stream store region in
  ignore (Pagestore.Store.stream_write ws (Bytes.make 256 'x'));
  let before = Pagestore.Store.stored_bytes store in
  Pagestore.Store.free_region store region;
  if Pagestore.Store.stored_bytes store >= before then
    Alcotest.fail "platter space not reclaimed"

let () =
  Alcotest.run "pagestore"
    [
      ( "region_allocator",
        [
          Alcotest.test_case "contiguous" `Quick test_alloc_contiguous;
          Alcotest.test_case "reuse after free" `Quick test_alloc_reuse_after_free;
          Alcotest.test_case "coalesce" `Quick test_alloc_coalesce;
          Alcotest.test_case "free accounting" `Quick test_alloc_free_pages_accounting;
          Alcotest.test_case "rejects empty" `Quick test_alloc_rejects_empty;
          QCheck_alcotest.to_alcotest prop_alloc_no_overlap;
          QCheck_alcotest.to_alcotest prop_alloc_free_alloc_cycles;
        ] );
      ( "platter",
        [
          Alcotest.test_case "roundtrip" `Quick test_platter_roundtrip;
          Alcotest.test_case "absent zero" `Quick test_platter_absent_reads_zero;
          Alcotest.test_case "write isolated" `Quick test_platter_write_isolated;
          QCheck_alcotest.to_alcotest prop_platter_model;
        ] );
      ( "buffer_manager",
        [
          Alcotest.test_case "caches hot page" `Quick test_buffer_caches_hot_page;
          Alcotest.test_case "eviction writes back" `Quick test_buffer_eviction_writes_back;
          Alcotest.test_case "miss costs seek" `Quick test_buffer_miss_costs_seek;
          Alcotest.test_case "crash loses dirty" `Quick test_buffer_crash_loses_dirty;
          Alcotest.test_case "force survives crash" `Quick test_buffer_force_survives_crash;
          Alcotest.test_case "flush all" `Quick test_buffer_flush_all;
          Alcotest.test_case "clock keeps referenced" `Quick test_buffer_clock_keeps_referenced;
          Alcotest.test_case "no space leak" `Quick test_no_space_leak;
          QCheck_alcotest.to_alcotest prop_buffer_model;
        ] );
      ( "wal",
        [
          Alcotest.test_case "append/replay" `Quick test_wal_append_replay;
          Alcotest.test_case "truncate" `Quick test_wal_truncate;
          Alcotest.test_case "replay from lsn" `Quick test_wal_replay_from_lsn;
          Alcotest.test_case "none durability" `Quick test_wal_none_durability_drops;
          Alcotest.test_case "size accounting" `Quick test_wal_size_accounting;
        ] );
      ( "store",
        [
          Alcotest.test_case "stream roundtrip" `Quick test_stream_write_read;
          Alcotest.test_case "stream costs" `Quick test_stream_costs_are_sequential;
          Alcotest.test_case "stream overflow" `Quick test_stream_overflow_rejected;
          Alcotest.test_case "commit root" `Quick test_commit_root_roundtrip;
          Alcotest.test_case "free region" `Quick test_free_region_drops_pages;
        ] );
    ]
