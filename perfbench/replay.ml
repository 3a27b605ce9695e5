(* Layer replays: each layer's own public functions, timed outside the
   engine on this workload's keys and values. Inputs are prepared
   before the clock starts; every figure is wall ns per call. *)

open Workload

let ns_per n f =
  let t0 = Meter.now_ns () in
  f ();
  float_of_int (Meter.now_ns () - t0) /. float_of_int (max 1 n)

let samples = 20_000

type t = {
  memtable_write_ns : float;
  memtable_get_ns : float;
  wal_append_ns : float;
  bloom_mem_ns : float;
  sstable_get_ns : float;
  builder_add_ns : float;
  iter_next_ns : float;
  crc_page_ns : float;
}

let run spec vals ~seed =
  (* ids drawn as the workload draws them *)
  let st = stream spec ~seed:(seed + 3) in
  let ids = Array.init samples (fun _ -> next_id st) in
  let probe_keys = Array.map (fun id -> keys.(id)) ids in
  let entries = Array.map (fun id -> Kv.Entry.Base (value vals id 2)) ids in
  let cfg = config spec in
  (* memtable: fill a table to C0 size, then probe it *)
  let mt = Memtable.create ~seed:cfg.Blsm.Config.seed ~resolver:cfg.resolver () in
  let writes = ref 0 in
  let memtable_write_ns =
    let dt =
      ns_per 1 (fun () ->
          while Memtable.bytes mt < cfg.c0_bytes do
            let i = !writes mod samples in
            Memtable.write mt ~lsn:!writes probe_keys.(i) entries.(i);
            incr writes
          done)
    in
    dt /. float_of_int !writes
  in
  let memtable_get_ns =
    ns_per samples (fun () -> Array.iter (fun k -> ignore (Sys.opaque_identity (Memtable.get mt k))) probe_keys)
  in
  (* WAL: the payloads Tree.put logs *)
  let payloads = Array.mapi (fun i k -> Blsm.Tree.encode_ops [ (k, entries.(i)) ]) probe_keys in
  let wal = Pagestore.Wal.create ~durability:Pagestore.Wal.Full (Simdisk.Disk.create Simdisk.Profile.ssd_raid0) in
  let wal_append_ns =
    ns_per samples (fun () -> Array.iter (fun p -> ignore (Pagestore.Wal.append wal p)) payloads)
  in
  (* Bloom: a filter over half the keyspace, so probes see both answers *)
  let bloom = Bloom.create ~bits_per_item:cfg.bloom_bits_per_key ~expected_items:(records / 2) () in
  Array.iteri (fun id k -> if id land 1 = 0 then Bloom.add bloom k) keys;
  let bloom_pass () = Array.iter (fun k -> ignore (Sys.opaque_identity (Bloom.mem bloom k))) probe_keys in
  bloom_pass ();
  let bloom_mem_ns = ns_per samples bloom_pass in
  (* SSTable: a component built from the preload, read warm *)
  let store =
    Pagestore.Store.create
      ~config:
        {
          Pagestore.Store.cfg_page_size = page_size;
          cfg_buffer_pages = 2 * data_bytes spec / page_size;
          cfg_durability = Pagestore.Wal.Full;
        }
      Simdisk.Profile.ssd_raid0
  in
  let sorted_entries = Array.map (fun id -> (keys.(id), Kv.Entry.Base (value vals id 1))) sorted_ids in
  let b = Sstable.Builder.create ~format:cfg.page_format ~extent_pages:cfg.extent_pages store in
  let builder_add_ns =
    ns_per records (fun () -> Array.iter (fun (k, e) -> Sstable.Builder.add b k e) sorted_entries)
  in
  let footer = Sstable.Builder.finish b ~timestamp:1 in
  let reader = Sstable.Reader.open_in_ram store footer ~index:(Sstable.Builder.index_blob b) in
  let get_pass () = Array.iter (fun k -> ignore (Sys.opaque_identity (Sstable.Reader.get reader k))) probe_keys in
  Array.iter (fun k -> ignore (Sstable.Reader.get reader k)) keys;
  let sstable_get_ns = ns_per samples get_pass in
  (* merge iterator: a quarter of the keys shadowing all of them *)
  let source arr =
    let i = ref 0 in
    fun () ->
      if !i = Array.length arr then None
      else begin
        let k, e = arr.(!i) in
        incr i;
        Some (k, e, 0)
      end
  in
  let newer = Array.of_list (List.filteri (fun i _ -> i land 3 = 0) (Array.to_list sorted_entries)) in
  let it =
    Sstable.Merge_iter.create ~resolver:cfg.resolver ~drop_tombstones:true
      [ (0, source newer); (1, source sorted_entries) ]
  in
  let iter_next_ns =
    ns_per records (fun () ->
        while Option.is_some (Sstable.Merge_iter.next it) do
          ()
        done)
  in
  (* CRC32C over pages of this workload's value bytes *)
  let pages =
    Array.init 256 (fun p ->
        String.init page_size (fun i -> vals.body.[((p * 131) + i) mod String.length vals.body]))
  in
  let crc_pass () = Array.iter (fun p -> ignore (Sys.opaque_identity (Repro_util.Crc32c.string p))) pages in
  crc_pass ();
  let crc_page_ns = ns_per (8 * 256) (fun () -> for _ = 1 to 8 do crc_pass () done) in
  {
    memtable_write_ns;
    memtable_get_ns;
    wal_append_ns;
    bloom_mem_ns;
    sstable_get_ns;
    builder_add_ns;
    iter_next_ns;
    crc_page_ns;
  }
