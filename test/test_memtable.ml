(* Skip list and memtable (C0) tests: model-based checks against Stdlib.Map,
   ordered iteration, successor queries, snowshovel consumption, byte
   accounting and LSN tracking. *)

let check = Alcotest.check

module SMap = Map.Make (String)
module Skiplist = Memtable.Skiplist

(* -------------------------------------------------------------------- *)
(* Skiplist *)

let test_skiplist_basic () =
  let sl = Skiplist.create () in
  Skiplist.set sl "b" 2;
  Skiplist.set sl "a" 1;
  Skiplist.set sl "c" 3;
  check (Alcotest.option Alcotest.int) "find a" (Some 1) (Skiplist.find sl "a");
  check (Alcotest.option Alcotest.int) "find missing" None (Skiplist.find sl "zz");
  check Alcotest.int "length" 3 (Skiplist.length sl);
  Skiplist.set sl "a" 10;
  check (Alcotest.option Alcotest.int) "overwrite" (Some 10) (Skiplist.find sl "a");
  check Alcotest.int "length unchanged" 3 (Skiplist.length sl)

let test_skiplist_ordered_iteration () =
  let sl = Skiplist.create () in
  List.iter (fun k -> Skiplist.set sl k ()) [ "d"; "a"; "c"; "b"; "e" ];
  let keys = List.map fst (Skiplist.to_list sl) in
  check (Alcotest.list Alcotest.string) "sorted" [ "a"; "b"; "c"; "d"; "e" ] keys

let test_skiplist_remove () =
  let sl = Skiplist.create () in
  List.iter (fun k -> Skiplist.set sl k k) [ "a"; "b"; "c" ];
  check (Alcotest.option Alcotest.string) "removed value" (Some "b")
    (Skiplist.remove sl "b");
  check (Alcotest.option Alcotest.string) "gone" None (Skiplist.find sl "b");
  check (Alcotest.option Alcotest.string) "remove missing" None
    (Skiplist.remove sl "b");
  check Alcotest.int "length" 2 (Skiplist.length sl)

let test_skiplist_succ_geq () =
  let sl = Skiplist.create () in
  List.iter (fun k -> Skiplist.set sl k ()) [ "b"; "d"; "f" ];
  let key_of = Option.map fst in
  check (Alcotest.option Alcotest.string) "exact" (Some "b")
    (key_of (Skiplist.succ_geq sl "b"));
  check (Alcotest.option Alcotest.string) "between" (Some "d")
    (key_of (Skiplist.succ_geq sl "c"));
  check (Alcotest.option Alcotest.string) "before all" (Some "b")
    (key_of (Skiplist.succ_geq sl "a"));
  check (Alcotest.option Alcotest.string) "past end" None
    (key_of (Skiplist.succ_geq sl "g"))

let test_skiplist_iter_from () =
  let sl = Skiplist.create () in
  List.iter (fun k -> Skiplist.set sl k ()) [ "a"; "b"; "c"; "d" ];
  let seen = ref [] in
  Skiplist.iter_from sl "b" (fun k () ->
      seen := k :: !seen;
      k <> "c" (* stop after c *));
  check (Alcotest.list Alcotest.string) "range" [ "b"; "c" ] (List.rev !seen)

(* Model-based property: a random op sequence applied to both the skiplist
   and Map yields identical contents. *)
let prop_skiplist_model =
  let op_gen =
    QCheck.Gen.(
      oneof
        [
          map (fun k -> `Set (string_of_int k)) (0 -- 50);
          map (fun k -> `Remove (string_of_int k)) (0 -- 50);
          map (fun k -> `Find (string_of_int k)) (0 -- 50);
        ])
  in
  QCheck.Test.make ~name:"skiplist vs Map model" ~count:200
    (QCheck.make QCheck.Gen.(list_size (1 -- 200) op_gen))
    (fun ops ->
      let sl = Skiplist.create () in
      let m = ref SMap.empty in
      let ok = ref true in
      List.iter
        (function
          | `Set k ->
              Skiplist.set sl k k;
              m := SMap.add k k !m
          | `Remove k ->
              let a = Skiplist.remove sl k in
              let b = SMap.find_opt k !m in
              m := SMap.remove k !m;
              if a <> b then ok := false
          | `Find k -> if Skiplist.find sl k <> SMap.find_opt k !m then ok := false)
        ops;
      !ok
      && Skiplist.to_list sl = SMap.bindings !m
      && Skiplist.length sl = SMap.cardinal !m)

let prop_skiplist_succ_matches_model =
  QCheck.Test.make ~name:"succ_geq vs Map model" ~count:200
    QCheck.(pair (list_of_size Gen.(0 -- 60) (int_range 0 99)) (int_range 0 99))
    (fun (keys, probe) ->
      let sl = Skiplist.create () in
      let m =
        List.fold_left
          (fun m k ->
            let s = Printf.sprintf "%02d" k in
            Skiplist.set sl s ();
            SMap.add s () m)
          SMap.empty keys
      in
      let probe = Printf.sprintf "%02d" probe in
      let expected = SMap.find_first_opt (fun k -> k >= probe) m in
      let actual = Skiplist.succ_geq sl probe in
      Option.map fst expected = Option.map fst actual)

(* The hash index behind [find] against a Map model and against the
   list's own descent ([succ_geq k] landing on [k]), checked for every
   key after every step of a random update/set/remove/succ_geq sequence
   over a small keyspace, so removed keys are re-inserted often. *)
let index_keys = List.init 24 (Printf.sprintf "k%02d")

let gen_index_op =
  QCheck.Gen.(
    map2
      (fun op k -> (op, Printf.sprintf "k%02d" k))
      (int_range 0 3) (int_range 0 23))

let descent_find sl k =
  match Skiplist.succ_geq sl k with
  | Some (k', v) when String.equal k' k -> Some v
  | _ -> None

let prop_skiplist_index_model =
  QCheck.Test.make ~name:"find = Map model = descent" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list (pair int string))
       QCheck.Gen.(list_size (1 -- 150) gen_index_op))
    (fun ops ->
      let sl = Skiplist.create () in
      let m = ref SMap.empty in
      List.iteri
        (fun step (op, k) ->
          (match op with
          | 0 ->
              let prev =
                Skiplist.update sl k (function None -> step | Some v -> v + step)
              in
              if prev <> SMap.find_opt k !m then
                QCheck.Test.fail_reportf "update %s: wrong previous value" k;
              m :=
                SMap.add k
                  (match prev with None -> step | Some v -> v + step)
                  !m
          | 1 ->
              Skiplist.set sl k step;
              m := SMap.add k step !m
          | 2 ->
              if Skiplist.remove sl k <> SMap.find_opt k !m then
                QCheck.Test.fail_reportf "remove %s: wrong value" k;
              m := SMap.remove k !m
          | _ ->
              let expected = SMap.find_first_opt (fun k' -> k' >= k) !m in
              if Skiplist.succ_geq sl k <> expected then
                QCheck.Test.fail_reportf "succ_geq %s disagrees" k);
          List.iter
            (fun k ->
              let model = SMap.find_opt k !m in
              if Skiplist.find sl k <> model then
                QCheck.Test.fail_reportf "step %d: find %s <> model" step k;
              if descent_find sl k <> model then
                QCheck.Test.fail_reportf "step %d: descent %s <> model" step k)
            index_keys;
          if Skiplist.length sl <> SMap.cardinal !m then
            QCheck.Test.fail_reportf "step %d: length" step)
        ops;
      true)

(* -------------------------------------------------------------------- *)
(* Memtable *)

let resolver = Kv.Entry.append_resolver

let mk () = Memtable.create ~resolver ()

let entry_testable = Alcotest.testable Kv.Entry.pp Kv.Entry.equal

(* A fresh cursor sought to [k] descends from the head: the ordered
   structure's own answer for [k], with its newest LSN. *)
let memtable_descent t k =
  let c = Memtable.cursor t in
  Memtable.seek c k;
  match Memtable.peek c with
  | Some (k', e, lsn) when String.equal k' k -> Some (e, lsn)
  | _ -> None

(* The same index check through the memtable's write / consume / remove
   surface: [get] agrees with a model of composed entries and with the
   descent (a cursor sought to [k] landing on [k]) after every step. *)
let prop_memtable_index_model =
  QCheck.Test.make ~name:"memtable get = model = descent" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list (pair int string))
       QCheck.Gen.(list_size (1 -- 150) gen_index_op))
    (fun ops ->
      let t = mk () in
      let m = ref SMap.empty in
      List.iteri
        (fun step (op, k) ->
          let lsn = step + 1 in
          (match op with
          | 0 | 1 ->
              let e =
                if op = 0 then Kv.Entry.Base (string_of_int step)
                else Kv.Entry.Delta [ string_of_int step ]
              in
              Memtable.write t ~lsn k e;
              m :=
                SMap.add k
                  (match SMap.find_opt k !m with
                  | None -> e
                  | Some older -> Kv.Entry.merge resolver ~newer:e ~older)
                  !m
          | 2 ->
              let got = Memtable.remove t k in
              if not (Option.equal Kv.Entry.equal got (SMap.find_opt k !m)) then
                QCheck.Test.fail_reportf "remove %s: wrong entry" k;
              m := SMap.remove k !m
          | _ -> (
              match Memtable.consume_geq_lsn t k with
              | None ->
                  if SMap.exists (fun k' _ -> k' >= k) !m then
                    QCheck.Test.fail_reportf "consume %s: missed a key" k
              | Some (k', e, _) ->
                  (match SMap.find_first_opt (fun x -> x >= k) !m with
                  | Some (mk, me) when String.equal mk k' && Kv.Entry.equal me e
                    -> ()
                  | _ -> QCheck.Test.fail_reportf "consume %s: wrong binding" k);
                  m := SMap.remove k' !m));
          List.iter
            (fun k ->
              let model = SMap.find_opt k !m in
              if not (Option.equal Kv.Entry.equal (Memtable.get t k) model) then
                QCheck.Test.fail_reportf "step %d: get %s <> model" step k;
              let descent = Option.map fst (memtable_descent t k) in
              if not (Option.equal Kv.Entry.equal descent model) then
                QCheck.Test.fail_reportf "step %d: descent %s <> model" step k)
            index_keys;
          if Memtable.count t <> SMap.cardinal !m then
            QCheck.Test.fail_reportf "step %d: count" step)
        ops;
      true)

(* [newest_lsn] (one hash probe) against the descent's LSN for every
   key, present or absent, after every step of random writes, removes,
   snowshovel consumes and cursor takes. *)
let prop_memtable_newest_lsn =
  QCheck.Test.make ~name:"newest_lsn probe = descent" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list (pair int string))
       QCheck.Gen.(
         list_size (1 -- 150)
           (map2
              (fun op k -> (op, Printf.sprintf "k%02d" k))
              (int_range 0 4) (int_range 0 23))))
    (fun ops ->
      let t = mk () in
      List.iteri
        (fun step (op, k) ->
          let lsn = step + 1 in
          (match op with
          | 0 -> Memtable.write t ~lsn k (Kv.Entry.Base (string_of_int step))
          | 1 -> Memtable.write t ~lsn k (Kv.Entry.Delta [ string_of_int step ])
          | 2 -> ignore (Memtable.remove t k)
          | 3 -> ignore (Memtable.consume_geq_lsn t k)
          | _ ->
              let c = Memtable.cursor t in
              Memtable.seek c k;
              Memtable.take c);
          List.iter
            (fun k ->
              let descent = Option.map snd (memtable_descent t k) in
              if Memtable.newest_lsn t k <> descent then
                QCheck.Test.fail_reportf "step %d: newest_lsn %s <> descent"
                  step k)
            index_keys)
        ops;
      true)

(* Two cursors against a Map model, interleaved with writes and removes
   made outside any cursor. Each cursor's model position is its last
   sought key; seeks only move forward (a cursor that would have to move
   back is replaced by a fresh one). After every step the list equals the
   model in order and by [find], and each cursor's [peek] is the model's
   successor of its position: so a [take] by one cursor while the other
   holds a finger, and an outside [remove], must leave both correct. *)
type position = Start | Geq of string | After of string

let gen_cursor_op =
  QCheck.Gen.(
    map3 (fun op cur k -> (op, cur, Printf.sprintf "k%02d" k))
      (int_range 0 9) (int_range 0 1) (int_range 0 29))

let passed pos k =
  match pos with
  | Start -> false
  | Geq b -> String.compare k b < 0
  | After b -> String.compare k b <= 0

let prop_skiplist_cursor_model =
  QCheck.Test.make ~name:"cursors vs Map model" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list (triple int int string))
       QCheck.Gen.(list_size (1 -- 200) gen_cursor_op))
    (fun ops ->
      let sl = Skiplist.create () in
      let m = ref SMap.empty in
      let cur = [| Skiplist.cursor sl; Skiplist.cursor sl |] in
      let pos = [| Start; Start |] in
      let succ i = SMap.find_first_opt (fun k -> not (passed pos.(i) k)) !m in
      (* Seek cursor [i] to [p], or restart it if that would move back. *)
      let reposition i k p =
        if passed pos.(i) k || (pos.(i) = After k) then begin
          cur.(i) <- Skiplist.cursor sl;
          pos.(i) <- Start
        end;
        match p with
        | `Geq ->
            Skiplist.seek cur.(i) k;
            pos.(i) <- Geq k
        | `After ->
            Skiplist.seek_after cur.(i) k;
            pos.(i) <- After k
      in
      List.iteri
        (fun step (op, i, k) ->
          (match op with
          | 0 ->
              ignore
                (Skiplist.update sl k (function None -> step | Some v -> v + step));
              m :=
                SMap.add k
                  (match SMap.find_opt k !m with None -> step | Some v -> v + step)
                  !m
          | 1 ->
              Skiplist.set sl k step;
              m := SMap.add k step !m
          | 2 ->
              if Skiplist.remove sl k <> SMap.find_opt k !m then
                QCheck.Test.fail_reportf "remove %s: wrong value" k;
              m := SMap.remove k !m
          | 3 -> reposition i k `Geq
          | 4 -> reposition i k `After
          | 5 -> (
              (* step past the binding just peeked: the cheap seek *)
              match Skiplist.peek cur.(i) with
              | Some (k', _) -> reposition i k' `After
              | None -> ())
          | 6 | 7 ->
              let expected = succ i in
              let got = Skiplist.take cur.(i) in
              if got <> expected then
                QCheck.Test.fail_reportf "step %d: take by cursor %d" step i;
              Option.iter (fun (k', _) -> m := SMap.remove k' !m) got
          | _ ->
              (* insert links at the finger: the key must lie past it *)
              if not (passed pos.(i) k || pos.(i) = After k) then begin
                Skiplist.insert cur.(i) k step;
                m := SMap.add k step !m;
                pos.(i) <- After k
              end);
          if Skiplist.to_list sl <> SMap.bindings !m then
            QCheck.Test.fail_reportf "step %d: list order <> model" step;
          if Skiplist.length sl <> SMap.cardinal !m then
            QCheck.Test.fail_reportf "step %d: length" step;
          List.iter
            (fun k ->
              if Skiplist.find sl k <> SMap.find_opt k !m then
                QCheck.Test.fail_reportf "step %d: find %s <> model" step k)
            (List.init 30 (Printf.sprintf "k%02d"));
          Array.iteri
            (fun i c ->
              if Skiplist.peek c <> succ i then
                QCheck.Test.fail_reportf "step %d: cursor %d peek <> model"
                  step i)
            cur)
        ops;
      true)

(* A [find] hit allocates only its [Some]: the index probe itself is
   allocation-free. *)
let test_skiplist_find_alloc () =
  let sl = Skiplist.create () in
  let keys = Array.init 10_000 (Printf.sprintf "key%06d") in
  Array.iteri (fun i k -> Skiplist.set sl k i) keys;
  let n = 5_000 in
  let probes = Array.init n (fun i -> keys.(i * 7919 mod 10_000)) in
  let found = ref 0 in
  let measure f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let words =
    measure (fun () ->
        for i = 0 to n - 1 do
          match Skiplist.find sl probes.(i) with
          | Some _ -> incr found
          | None -> ()
        done)
    -. measure ignore
  in
  check Alcotest.int "all hit" n !found;
  if words /. float_of_int n > 2.0 then
    Alcotest.failf "find hit allocates %.2f words (limit 2)"
      (words /. float_of_int n)

let test_memtable_write_get () =
  let t = mk () in
  Memtable.write t ~lsn:1 "k" (Kv.Entry.Base "v");
  check (Alcotest.option entry_testable) "get" (Some (Kv.Entry.Base "v"))
    (Memtable.get t "k");
  check (Alcotest.option entry_testable) "missing" None (Memtable.get t "nope")

let test_memtable_delta_composes_in_c0 () =
  let t = mk () in
  Memtable.write t ~lsn:1 "k" (Kv.Entry.Base "v");
  Memtable.write t ~lsn:2 "k" (Kv.Entry.Delta [ "+d" ]);
  check (Alcotest.option entry_testable) "composed" (Some (Kv.Entry.Base "v+d"))
    (Memtable.get t "k");
  (* delta with no base stays a delta *)
  Memtable.write t ~lsn:3 "j" (Kv.Entry.Delta [ "x" ]);
  Memtable.write t ~lsn:4 "j" (Kv.Entry.Delta [ "y" ]);
  check (Alcotest.option entry_testable) "delta chain"
    (Some (Kv.Entry.Delta [ "x"; "y" ]))
    (Memtable.get t "j")

let test_memtable_tombstone () =
  let t = mk () in
  Memtable.write t ~lsn:1 "k" (Kv.Entry.Base "v");
  Memtable.write t ~lsn:2 "k" Kv.Entry.Tombstone;
  check (Alcotest.option entry_testable) "tombstone visible"
    (Some Kv.Entry.Tombstone) (Memtable.get t "k")

let test_memtable_bytes_accounting () =
  let t = mk () in
  check Alcotest.int "empty" 0 (Memtable.bytes t);
  Memtable.write t ~lsn:1 "key" (Kv.Entry.Base (String.make 100 'v'));
  let b1 = Memtable.bytes t in
  if b1 < 100 then Alcotest.fail "bytes below payload";
  (* overwriting with a smaller value shrinks usage *)
  Memtable.write t ~lsn:2 "key" (Kv.Entry.Base "v");
  if Memtable.bytes t >= b1 then Alcotest.fail "overwrite did not shrink";
  ignore (Memtable.remove t "key");
  check Alcotest.int "empty after remove" 0 (Memtable.bytes t)

let test_memtable_consume_geq () =
  let t = mk () in
  List.iter
    (fun k -> Memtable.write t ~lsn:1 k (Kv.Entry.Base k))
    [ "b"; "d"; "f" ];
  (match Memtable.consume_geq t "c" with
  | Some ("d", _) -> ()
  | _ -> Alcotest.fail "expected d");
  check (Alcotest.option entry_testable) "d consumed" None (Memtable.get t "d");
  check Alcotest.int "two left" 2 (Memtable.count t);
  (* wrap: nothing >= g *)
  (match Memtable.consume_geq t "g" with
  | None -> ()
  | Some _ -> Alcotest.fail "expected wrap");
  (match Memtable.consume_min t with
  | Some ("b", _) -> ()
  | _ -> Alcotest.fail "expected b")

let test_memtable_oldest_lsn () =
  let t = mk () in
  check (Alcotest.option Alcotest.int) "empty" None (Memtable.oldest_lsn t);
  Memtable.write t ~lsn:5 "a" (Kv.Entry.Base "1");
  Memtable.write t ~lsn:9 "b" (Kv.Entry.Base "2");
  check (Alcotest.option Alcotest.int) "min" (Some 5) (Memtable.oldest_lsn t);
  (* a delta keeps depending on the older lsn *)
  Memtable.write t ~lsn:12 "a" (Kv.Entry.Delta [ "+d" ]);
  check (Alcotest.option Alcotest.int) "delta keeps old lsn" (Some 5)
    (Memtable.oldest_lsn t);
  (* a base write supersedes the dependency *)
  Memtable.write t ~lsn:15 "a" (Kv.Entry.Base "fresh");
  check (Alcotest.option Alcotest.int) "base refreshes" (Some 9)
    (Memtable.oldest_lsn t);
  ignore (Memtable.consume_min t);
  ignore (Memtable.consume_min t);
  check (Alcotest.option Alcotest.int) "empty again" None (Memtable.oldest_lsn t)

let prop_memtable_snowshovel_drains_sorted =
  (* consuming with a moving cursor yields sorted output per run, and the
     union of runs equals the input key set *)
  QCheck.Test.make ~name:"snowshovel drains everything in sorted runs" ~count:100
    QCheck.(list_of_size Gen.(1 -- 80) (int_range 0 999))
    (fun keys ->
      let t = mk () in
      List.iter
        (fun k ->
          Memtable.write t ~lsn:1 (Printf.sprintf "%03d" k) (Kv.Entry.Base "v"))
        keys;
      let expected = Memtable.count t in
      let drained = ref [] in
      let cursor = ref "" in
      let runs = ref 1 in
      while not (Memtable.is_empty t) do
        match Memtable.consume_geq t !cursor with
        | Some (k, _) ->
            drained := k :: !drained;
            cursor := k ^ "\000" (* strictly after k *)
        | None ->
            cursor := "";
            incr runs;
            if !runs > 1000 then failwith "livelock"
      done;
      List.length !drained = expected)

let () =
  Alcotest.run "memtable"
    [
      ( "skiplist",
        [
          Alcotest.test_case "basic" `Quick test_skiplist_basic;
          Alcotest.test_case "ordered" `Quick test_skiplist_ordered_iteration;
          Alcotest.test_case "remove" `Quick test_skiplist_remove;
          Alcotest.test_case "succ_geq" `Quick test_skiplist_succ_geq;
          Alcotest.test_case "iter_from" `Quick test_skiplist_iter_from;
          QCheck_alcotest.to_alcotest prop_skiplist_model;
          QCheck_alcotest.to_alcotest prop_skiplist_succ_matches_model;
          QCheck_alcotest.to_alcotest prop_skiplist_index_model;
          QCheck_alcotest.to_alcotest prop_skiplist_cursor_model;
          Alcotest.test_case "find hit allocation" `Quick
            test_skiplist_find_alloc;
        ] );
      ( "memtable",
        [
          Alcotest.test_case "write/get" `Quick test_memtable_write_get;
          Alcotest.test_case "delta composition" `Quick test_memtable_delta_composes_in_c0;
          Alcotest.test_case "tombstone" `Quick test_memtable_tombstone;
          Alcotest.test_case "bytes accounting" `Quick test_memtable_bytes_accounting;
          Alcotest.test_case "consume_geq" `Quick test_memtable_consume_geq;
          Alcotest.test_case "oldest lsn" `Quick test_memtable_oldest_lsn;
          QCheck_alcotest.to_alcotest prop_memtable_snowshovel_drains_sorted;
          QCheck_alcotest.to_alcotest prop_memtable_index_model;
          QCheck_alcotest.to_alcotest prop_memtable_newest_lsn;
        ] );
    ]
