(* The ELFie farm suite (dune alias @farm, also part of the default
   test run): content-addressed keys, codec roundtrips and malformed
   payloads, the store-fault corruption sweep, quarantine and eviction
   accounting, concurrent access (exactly-one-computation, stale-lock
   breaking, waiting on live owners), the batch driver's
   cold/warm/resume behavior — a warm second run of the same manifest
   must perform no program execution at all — and the [elfied stats] /
   [gc] commands. *)

module Store = Elfie_farm.Store
module Codec = Elfie_farm.Codec
module Driver = Elfie_farm.Driver
module Journal = Elfie_supervise.Journal
module Pool = Elfie_util.Pool
module Metrics = Elfie_obs.Metrics

(* A pid guaranteed dead, forked and reaped at module init — before any
   test spawns domains (fork is not allowed with multiple domains
   running). *)
let dead_pid =
  match Unix.fork () with
  | 0 -> Unix._exit 0
  | pid ->
      ignore (Unix.waitpid [] pid);
      pid

let tmp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let tiny_spec name =
  Elfie_workloads.Programs.spec
    ~phases:
      [ { kernel = Elfie_workloads.Kernels.Stream; reps = 1500 };
        { kernel = Elfie_workloads.Kernels.Branchy; reps = 1200 } ]
    ~outer_reps:6 ~threads:1 ~ws_bytes:32768 name

let program_bytes spec =
  Bytes.to_string (Elfie_elf.Image.write (Elfie_workloads.Programs.image spec))

(* --- keys ------------------------------------------------------------------ *)

let test_key_normalization () =
  let d kind program params = Store.digest (Store.key kind ~program params) in
  Alcotest.(check string)
    "parameter order does not change the address"
    (d Store.Bbv "prog" [ ("slice", "10000"); ("seed", "7") ])
    (d Store.Bbv "prog" [ ("seed", "7"); ("slice", "10000") ]);
  Alcotest.(check bool)
    "program bytes are part of the address" true
    (d Store.Bbv "prog-a" [ ("slice", "10000") ]
    <> d Store.Bbv "prog-b" [ ("slice", "10000") ]);
  Alcotest.(check bool)
    "a changed parameter re-keys" true
    (d Store.Bbv "prog" [ ("slice", "10000") ]
    <> d Store.Bbv "prog" [ ("slice", "20000") ]);
  Alcotest.(check bool)
    "kind is part of the address" true
    (d Store.Bbv "prog" [] <> d Store.Simpoint "prog" []);
  Alcotest.(check bool)
    "escaping keeps odd values unambiguous" true
    (d Store.Bbv "prog" [ ("a", "x&b=y") ] <> d Store.Bbv "prog" [ ("a", "x"); ("b", "y") ])

let test_put_get_roundtrip () =
  let root = tmp_dir "elfie_store" in
  let store = Store.open_store root in
  let k = Store.key Store.Measurement ~program:"p" [ ("n", "1") ] in
  Alcotest.(check bool)
    "absent before put" false
    (Sys.file_exists (Store.path_of store k));
  let payload = String.init 300 (fun i -> Char.chr (i mod 251)) in
  Store.put store k ~format:1 payload;
  Alcotest.(check bool)
    "present after put" true
    (Sys.file_exists (Store.path_of store k));
  (match Store.get store k ~format:1 with
  | Some p -> Alcotest.(check string) "payload roundtrips" payload p
  | None -> Alcotest.fail "verified read failed on a fresh artifact");
  (* A format bump is version skew: quarantined, served as a miss. *)
  (match Store.get store k ~format:2 with
  | Some _ -> Alcotest.fail "format skew served"
  | None -> ());
  Alcotest.(check bool) "skew quarantined" true
    (List.exists
       (fun (q : Store.quarantine) -> q.Store.q_reason = "format-skew")
       (Store.quarantines store));
  Alcotest.(check bool) "quarantined file preserved" true
    (List.for_all
       (fun (q : Store.quarantine) -> Sys.file_exists q.Store.q_moved_to)
       (Store.quarantines store))

(* A committed artifact outlives its handle: reopening the root serves it
   as a hit, and the atomic commit leaves no temp file beside it. *)
let test_commit_survives_reopen () =
  let root = tmp_dir "elfie_store_reopen" in
  let k = Store.key Store.Bbv ~program:"reopen" [ ("n", "1") ] in
  let seen = ref [] in
  let on_result r = seen := r :: !seen in
  let first =
    Store.get_or_compute_v ~on_result (Store.open_store root) k ~format:1
      ~encode:Fun.id ~decode:Result.ok (fun () -> "committed")
  in
  Alcotest.(check string) "computed value returned" "committed" first;
  let again =
    Store.get_or_compute_v ~on_result (Store.open_store root) k ~format:1
      ~encode:Fun.id ~decode:Result.ok (fun () ->
        Alcotest.fail "recomputed after reopening the store")
  in
  Alcotest.(check string) "reopened handle serves the commit" first again;
  Alcotest.(check bool) "miss, then hit" true (List.rev !seen = [ `Miss; `Hit ]);
  Alcotest.(check (list string)) "only the artifact is left on disk"
    [ Store.digest k ^ ".art" ]
    (Array.to_list (Sys.readdir (Filename.concat root (Store.kind_name Store.Bbv))))

let test_size_and_counts () =
  let store = Store.open_store (tmp_dir "elfie_store_size") in
  Alcotest.(check int64) "empty store" 0L (Store.size_bytes store);
  let k1 = Store.key Store.Bbv ~program:"p" [ ("n", "1") ]
  and k2 = Store.key Store.Bbv ~program:"p" [ ("n", "2") ]
  and k3 = Store.key Store.Measurement ~program:"p" [] in
  List.iter (fun k -> Store.put store k ~format:1 "payload") [ k1; k2; k3 ];
  Alcotest.(check int) "two profiles" 2 (Store.artifact_count store Store.Bbv);
  Alcotest.(check int) "one measurement" 1
    (Store.artifact_count store Store.Measurement);
  Alcotest.(check int) "no elfies" 0 (Store.artifact_count store Store.Elfie);
  let file_bytes k =
    Int64.of_int (Unix.stat (Store.path_of store k)).Unix.st_size
  in
  let live = Int64.add (file_bytes k1) (file_bytes k2) in
  Alcotest.(check int64) "size sums the artifact files"
    (Int64.add live (file_bytes k3))
    (Store.size_bytes store);
  (* A quarantined artifact leaves the live accounting. *)
  ignore (Store.get store k3 ~format:2);
  Alcotest.(check int) "quarantined measurement not counted" 0
    (Store.artifact_count store Store.Measurement);
  Alcotest.(check int64) "size excludes the quarantine" live
    (Store.size_bytes store)

(* --- eviction -------------------------------------------------------------- *)

(* Commit a small artifact and backdate its modification time. *)
let put_aged store kind name ~mtime =
  let k = Store.key kind ~program:name [] in
  Store.put store k ~format:1 (String.make 100 'x');
  Unix.utimes (Store.path_of store k) mtime mtime;
  k

(* Five artifacts over three mtimes; at t=3000 two profiles and an
   ELFie tie. Returns them in the documented eviction order: ascending
   mtime, then kind name, then digest. *)
let aged_store prefix =
  let store = Store.open_store (tmp_dir prefix) in
  let a = put_aged store Store.Bbv "a" ~mtime:1000.0 in
  let b = put_aged store Store.Measurement "b" ~mtime:2000.0 in
  let c = put_aged store Store.Bbv "c" ~mtime:3000.0 in
  let d = put_aged store Store.Elfie "d" ~mtime:3000.0 in
  let e = put_aged store Store.Bbv "e" ~mtime:3000.0 in
  let tied_profiles =
    List.sort (fun x y -> compare (Store.digest x) (Store.digest y)) [ c; e ]
  in
  (store, [ a; b ] @ tied_profiles @ [ d ])

let test_eviction_plan_order () =
  let store, order = aged_store "elfie_store_plan" in
  let bytes k = (Unix.stat (Store.path_of store k)).Unix.st_size in
  let total = Store.size_bytes store in
  let planned max_bytes =
    List.map
      (fun (ev : Store.eviction) -> ev.Store.ev_digest)
      (Store.eviction_plan store ~max_bytes)
  in
  let digests = List.map Store.digest in
  Alcotest.(check (list string)) "within budget: nothing planned" []
    (planned total);
  Alcotest.(check (list string)) "one byte over: the oldest goes"
    (digests [ List.hd order ])
    (planned (Int64.pred total));
  Alcotest.(check (list string)) "zero budget: everything, in order"
    (digests order) (planned 0L);
  let newest = List.filteri (fun i _ -> i >= 2) order in
  Alcotest.(check (list string)) "stops as soon as the rest fits"
    (digests [ List.nth order 0; List.nth order 1 ])
    (planned (Int64.of_int (List.fold_left (fun n k -> n + bytes k) 0 newest)));
  List.iter
    (fun (ev : Store.eviction) ->
      let k = List.find (fun k -> Store.digest k = ev.Store.ev_digest) order in
      Alcotest.(check string) "planned path" (Store.path_of store k)
        ev.Store.ev_path;
      Alcotest.(check int) "planned bytes" (bytes k) ev.Store.ev_bytes)
    (Store.eviction_plan store ~max_bytes:0L);
  Alcotest.(check bool) "planning touches nothing" true
    (List.for_all (fun k -> Sys.file_exists (Store.path_of store k)) order)

let test_evict_matches_plan () =
  let store, order = aged_store "elfie_store_evict" in
  (* A quarantined corpse and a lock file are never eviction candidates. *)
  let q = Store.key Store.Measurement ~program:"corpse" [] in
  Store.put store q ~format:1 "corpse";
  ignore (Store.get store q ~format:2);
  let lock = Store.lock_path_of store (List.hd order) in
  Out_channel.with_open_bin lock (fun oc ->
      Printf.fprintf oc "ELFIELOCK %d held.0\n" (Unix.getppid ()));
  let q_before, _, _ = Store.quarantine_stats store in
  let bytes k = (Unix.stat (Store.path_of store k)).Unix.st_size in
  let newest = List.filteri (fun i _ -> i >= 2) order in
  let budget = Int64.of_int (List.fold_left (fun n k -> n + bytes k) 0 newest) in
  let plan = Store.eviction_plan store ~max_bytes:budget in
  let m_evictions = Metrics.counter "elfie_store_evictions_total" in
  let evictions0 = Metrics.total m_evictions in
  let removed = Store.evict store ~max_bytes:budget in
  Alcotest.(check int) "evicts exactly the plan" (List.length plan) removed;
  Alcotest.(check (float 0.0)) "evictions counted" (float_of_int removed)
    (Metrics.total m_evictions -. evictions0);
  List.iteri
    (fun i k ->
      Alcotest.(check bool)
        (Printf.sprintf "artifact %d %s" i (if i < 2 then "evicted" else "kept"))
        (i >= 2) (Sys.file_exists (Store.path_of store k)))
    order;
  Alcotest.(check bool) "store fits the budget" true
    (Store.size_bytes store <= budget);
  let q_after, _, _ = Store.quarantine_stats store in
  Alcotest.(check int) "quarantine untouched" q_before q_after;
  Alcotest.(check bool) "lock file untouched" true (Sys.file_exists lock);
  Sys.remove lock

(* --- quarantine accounting -------------------------------------------------- *)

let overwrite path f =
  let raw = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc -> output_string oc (f raw))

let test_quarantine_stats () =
  let store = Store.open_store (tmp_dir "elfie_store_qstats") in
  let put name =
    let k = Store.key Store.Measurement ~program:name [] in
    Store.put store k ~format:1 ("payload of " ^ name);
    k
  in
  let skew1 = put "skew1" and skew2 = put "skew2" in
  let flipped = put "flipped" and torn = put "torn" in
  overwrite (Store.path_of store flipped) (fun raw ->
      let b = Bytes.of_string raw in
      let last = Bytes.length b - 1 in
      Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0x01));
      Bytes.to_string b);
  overwrite (Store.path_of store torn) (fun raw ->
      String.sub raw 0 (String.length raw - 3));
  List.iter
    (fun (k, format) ->
      Alcotest.(check bool) "corrupt read is a miss" true
        (Store.get store k ~format = None))
    [ (skew1, 2); (skew2, 2); (flipped, 1); (torn, 1) ];
  let count, bytes, reasons = Store.quarantine_stats store in
  Alcotest.(check int) "four corpses" 4 count;
  Alcotest.(check int64) "corpse bytes preserved"
    (List.fold_left
       (fun acc (q : Store.quarantine) ->
         Int64.add acc
           (Int64.of_int (Unix.stat q.Store.q_moved_to).Unix.st_size))
       0L (Store.quarantines store))
    bytes;
  Alcotest.(check (list (pair string int)))
    "reasons by descending count, then name"
    [ ("format-skew", 2); ("checksum-mismatch", 1); ("torn", 1) ]
    reasons

(* A quarantine is recorded in the persistent log, in the handle and in
   the labelled [elfie_store_quarantines_total] series. *)
let test_quarantine_log_and_metric () =
  let root = tmp_dir "elfie_store_qlog" in
  let store = Store.open_store root in
  let k = Store.key Store.Measurement ~program:"qlog" [] in
  Store.put store k ~format:1 "payload";
  let m_quarantines = Metrics.counter "elfie_store_quarantines_total" in
  let labels = [ ("kind", "measurement"); ("reason", "format-skew") ] in
  let before = Metrics.value ~labels m_quarantines in
  ignore (Store.get store k ~format:2);
  Alcotest.(check (float 0.0)) "labelled series counts the quarantine" 1.0
    (Metrics.value ~labels m_quarantines -. before);
  let check_record what (q : Store.quarantine) =
    Alcotest.(check string) (what ^ ": digest") (Store.digest k) q.Store.q_digest;
    Alcotest.(check string) (what ^ ": kind") "measurement" q.Store.q_kind;
    Alcotest.(check string) (what ^ ": reason") "format-skew" q.Store.q_reason;
    Alcotest.(check bool) (what ^ ": corpse on disk") true
      (Sys.file_exists q.Store.q_moved_to)
  in
  (match Store.quarantines store with
  | [ q ] -> check_record "handle" q
  | qs -> Alcotest.failf "handle recorded %d quarantines" (List.length qs));
  (* The log is persistent: a fresh handle reads it back, while its own
     per-handle list starts empty. *)
  let reopened = Store.open_store root in
  (match Store.read_quarantine_log reopened with
  | [ q ] -> check_record "log" q
  | qs -> Alcotest.failf "log holds %d records" (List.length qs));
  Alcotest.(check int) "fresh handle observed nothing" 0
    (List.length (Store.quarantines reopened))

(* --- codecs ---------------------------------------------------------------- *)

let test_codec_roundtrips () =
  let spec = tiny_spec "codec" in
  let rs = Elfie_workloads.Programs.run_spec ~seed:42L spec in
  let profile = Elfie_pin.Bbv.profile rs ~slice_size:10_000L in
  let reenc enc dec what x =
    match dec (enc x) with
    | Ok y -> Alcotest.(check string) what (enc x) (enc y)
    | Error d -> Alcotest.failf "%s: %a" what Elfie_util.Diag.pp d
  in
  reenc Codec.encode_bbv Codec.decode_bbv "bbv roundtrip" profile;
  let params =
    { Elfie_simpoint.Simpoint.default_params with max_k = 4; dims = 8 }
  in
  let sel = Elfie_simpoint.Simpoint.select ~params profile in
  reenc Codec.encode_selection Codec.decode_selection "selection roundtrip" sel;
  let r =
    Elfie_pin.Logger.capture rs ~name:"farmpb"
      { Elfie_pin.Logger.start = 20_000L; length = 30_000L }
  in
  let pb = r.Elfie_pin.Logger.pinball in
  reenc Codec.encode_pinball
    (Codec.decode_pinball ~name:"farmpb")
    "pinball roundtrip" pb;
  let sysstate = Elfie_pin.Sysstate.analyze pb in
  let image =
    Elfie_core.Pinball2elf.convert
      ~options:
        { Elfie_core.Pinball2elf.default_options with sysstate = Some sysstate }
      pb
  in
  reenc Codec.encode_elfie Codec.decode_elfie "elfie roundtrip"
    (image, sysstate);
  let m =
    { Codec.m_cluster = 3; m_weight = 0.25; m_cpi = 1.75; m_stddev = 0.01;
      m_instructions = 30_000L; m_trials = 3; m_failures = 1 }
  in
  match Codec.decode_measurement (Codec.encode_measurement m) with
  | Ok m' -> Alcotest.(check bool) "measurement roundtrip" true (m = m')
  | Error d -> Alcotest.failf "measurement roundtrip: %a" Elfie_util.Diag.pp d

let test_key_builders () =
  let d = Store.digest in
  let program = "program bytes" in
  let differ what a b = Alcotest.(check bool) what true (d a <> d b) in
  let bbv ?seed ?(program = program) slice_size =
    Codec.bbv_key ~program ~slice_size ?seed ()
  in
  Alcotest.(check string) "bbv key is stable" (d (bbv 10_000L)) (d (bbv 10_000L));
  differ "bbv: slice size" (bbv 10_000L) (bbv 20_000L);
  differ "bbv: seed" (bbv ~seed:1L 10_000L) (bbv ~seed:2L 10_000L);
  differ "bbv: seeded vs unseeded" (bbv ~seed:1L 10_000L) (bbv 10_000L);
  differ "bbv: program" (bbv 10_000L) (bbv ~program:"other" 10_000L);
  let base = Elfie_simpoint.Simpoint.default_params in
  let sel params = Codec.selection_key ~program ~params () in
  Alcotest.(check string) "selection key is stable" (d (sel base)) (d (sel base));
  differ "selection: max_k" (sel base) (sel { base with max_k = base.max_k + 1 });
  differ "selection: dims" (sel base) (sel { base with dims = base.dims + 1 });
  differ "selection: seed" (sel base)
    (sel { base with seed = Int64.succ base.seed });
  differ "selection: slice size" (sel base)
    (sel { base with slice_size = Int64.add base.slice_size 1L });
  differ "selection: warmup" (sel base)
    (sel { base with warmup = Int64.add base.warmup 1L });
  differ "selection vs profile of one slice size"
    (sel base) (bbv base.slice_size);
  let pinball ~start = Codec.pinball_key ~program ~start ~length:1000L () in
  let elfie ~warmup = Codec.elfie_key ~program ~start:0L ~length:1000L ~warmup () in
  differ "pinball: window" (pinball ~start:0L) (pinball ~start:1000L);
  differ "elfie vs pinball of one window" (elfie ~warmup:0L) (pinball ~start:0L);
  differ "elfie: warmup" (elfie ~warmup:0L) (elfie ~warmup:500L);
  let measurement ?(start = 0L) ?(warmup = 0L) ?(trials = 1) ?(base_seed = 1L)
      () =
    Codec.measurement_key ~program ~start ~length:1000L ~warmup ~trials
      ~base_seed
  in
  differ "measurement: trials" (measurement ()) (measurement ~trials:2 ());
  differ "measurement: base seed" (measurement ()) (measurement ~base_seed:2L ());
  differ "measurement: warmup" (measurement ()) (measurement ~warmup:500L ());
  differ "measurement: window" (measurement ()) (measurement ~start:1000L ())

(* One artifact of every kind, built once for the codec tests below. *)
let artifacts =
  lazy
    (let rs =
       Elfie_workloads.Programs.run_spec ~seed:42L (tiny_spec "artifacts")
     in
     let profile = Elfie_pin.Bbv.profile rs ~slice_size:10_000L in
     let selection =
       Elfie_simpoint.Simpoint.select
         ~params:
           { Elfie_simpoint.Simpoint.default_params with max_k = 4; dims = 8 }
         profile
     in
     let pb =
       (Elfie_pin.Logger.capture rs ~name:"artpb"
          { Elfie_pin.Logger.start = 20_000L; length = 30_000L })
         .Elfie_pin.Logger.pinball
     in
     let sysstate = Elfie_pin.Sysstate.analyze pb in
     let image =
       Elfie_core.Pinball2elf.convert
         ~options:
           { Elfie_core.Pinball2elf.default_options with
             sysstate = Some sysstate }
         pb
     in
     (profile, selection, pb, (image, sysstate)))

let sample_measurement cpi =
  { Codec.m_cluster = 1; m_weight = 0.5; m_cpi = cpi; m_stddev = 0.02;
    m_instructions = 10_000L; m_trials = 2; m_failures = 0 }

(* Every decoder turns a truncated or foreign payload into a diagnostic:
   no exception escapes, and no prefix of a valid payload decodes. *)
let test_decoders_reject_malformed () =
  let profile, selection, pb, elfie = Lazy.force artifacts in
  let decoders =
    [ ("bbv", Codec.encode_bbv profile,
       fun s -> Result.is_ok (Codec.decode_bbv s));
      ("selection", Codec.encode_selection selection,
       fun s -> Result.is_ok (Codec.decode_selection s));
      ("pinball", Codec.encode_pinball pb,
       fun s -> Result.is_ok (Codec.decode_pinball ~name:"artpb" s));
      ("elfie", Codec.encode_elfie elfie,
       fun s -> Result.is_ok (Codec.decode_elfie s));
      ("measurement", Codec.encode_measurement (sample_measurement 1.5),
       fun s -> Result.is_ok (Codec.decode_measurement s)) ]
  in
  let rng = Random.State.make [| 7 |] in
  List.iter
    (fun (what, valid, decodes) ->
      Alcotest.(check bool) (what ^ ": valid payload decodes") true
        (decodes valid);
      let n = String.length valid in
      List.iter
        (fun len ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d-byte prefix rejected" what len)
            false
            (decodes (String.sub valid 0 len)))
        (List.sort_uniq compare [ 0; 1; n / 4; n / 2; n - 1 ]);
      for i = 1 to 16 do
        let junk =
          String.init (i * 16) (fun _ -> Char.chr (Random.State.int rng 256))
        in
        match decodes junk with
        | _ -> ()
        | exception e ->
            Alcotest.failf "%s: decoder raised %s on random bytes" what
              (Printexc.to_string e)
      done)
    decoders

(* Each cached wrapper computes on a miss and, on the hit, decodes the
   very value it committed — without calling the computation again. *)
let test_cached_wrappers () =
  let profile, selection, pb, elfie = Lazy.force artifacts in
  let store = Store.open_store (tmp_dir "elfie_farm_wrappers") in
  let program = "cached wrappers" in
  let twice what encode cached key v =
    let seen = ref [] in
    let on_result r = seen := r :: !seen in
    let cold = cached ?on_result:(Some on_result) store key (fun () -> v) in
    let warm =
      cached ?on_result:(Some on_result) store key (fun () ->
          Alcotest.failf "%s recomputed on a warm store" what)
    in
    Alcotest.(check bool) (what ^ ": miss, then hit") true
      (List.rev !seen = [ `Miss; `Hit ]);
    Alcotest.(check string) (what ^ ": cold value") (encode v) (encode cold);
    Alcotest.(check string) (what ^ ": warm value") (encode v) (encode warm)
  in
  twice "bbv" Codec.encode_bbv Codec.cached_bbv
    (Codec.bbv_key ~program ~slice_size:10_000L ())
    profile;
  twice "selection" Codec.encode_selection Codec.cached_selection
    (Codec.selection_key ~program ~params:selection.Elfie_simpoint.Simpoint.params
       ())
    selection;
  twice "pinball" Codec.encode_pinball
    (fun ?on_result store key f ->
      Codec.cached_pinball ?on_result store key ~name:"artpb" f)
    (Codec.pinball_key ~program ~start:20_000L ~length:30_000L ())
    pb;
  twice "elfie" Codec.encode_elfie Codec.cached_elfie
    (Codec.elfie_key ~program ~start:20_000L ~length:30_000L ~warmup:0L ())
    elfie;
  twice "measurement" Codec.encode_measurement Codec.cached_measurement
    (Codec.measurement_key ~program ~start:20_000L ~length:30_000L ~warmup:0L
       ~trials:2 ~base_seed:1L)
    (sample_measurement 1.25)

let measurement_key name =
  Codec.measurement_key ~program:name ~start:0L ~length:1000L ~warmup:0L
    ~trials:1 ~base_seed:1L

(* A committed artifact whose checksum verifies but whose payload the
   codec rejects is quarantined as undecodable and recomputed. *)
let test_undecodable_recomputed () =
  let store = Store.open_store (tmp_dir "elfie_farm_undecodable") in
  let k = measurement_key "undecodable" in
  Store.put store k ~format:(Codec.format Store.Measurement) "not a measurement";
  let m = sample_measurement 2.0 in
  let seen = ref [] in
  let on_result r = seen := r :: !seen in
  let computed = ref 0 in
  let got =
    Codec.cached_measurement ~on_result store k (fun () -> incr computed; m)
  in
  Alcotest.(check bool) "recomputed value served" true (got = m);
  Alcotest.(check int) "computed once" 1 !computed;
  Alcotest.(check bool) "quarantined as undecodable" true
    (List.exists
       (fun (q : Store.quarantine) -> q.Store.q_reason = "undecodable")
       (Store.quarantines store));
  let again =
    Codec.cached_measurement ~on_result store k (fun () ->
        Alcotest.fail "recomputed after the repair")
  in
  Alcotest.(check bool) "repaired artifact hits" true (again = m);
  Alcotest.(check bool) "miss, then hit" true (List.rev !seen = [ `Miss; `Hit ])

(* Bit rot in a committed measurement never reaches the caller: the
   wrapper serves a fresh computation and the repaired artifact hits. *)
let test_cached_corruption_recomputed () =
  let store = Store.open_store (tmp_dir "elfie_farm_rot") in
  let k = measurement_key "rot" in
  let stale = sample_measurement 1.0 and fresh = sample_measurement 3.0 in
  ignore (Codec.cached_measurement store k (fun () -> stale));
  overwrite (Store.path_of store k) (fun raw ->
      let b = Bytes.of_string raw in
      let last = Bytes.length b - 1 in
      Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0x80));
      Bytes.to_string b);
  let got = Codec.cached_measurement store k (fun () -> fresh) in
  Alcotest.(check bool) "fresh computation served" true (got = fresh);
  Alcotest.(check bool) "corrupt artifact quarantined" true
    (List.exists
       (fun (q : Store.quarantine) -> q.Store.q_reason = "checksum-mismatch")
       (Store.quarantines store));
  let again =
    Codec.cached_measurement store k (fun () ->
        Alcotest.fail "recomputed after the repair")
  in
  Alcotest.(check bool) "repaired artifact hits" true (again = fresh)

(* --- corruption sweep ------------------------------------------------------ *)

let test_store_fault_sweep () =
  let root = tmp_dir "elfie_store_faults" in
  let report = Store_faults.run_store ~iterations:8 ~root () in
  Format.printf "%a@." Store_faults.pp_store_report report;
  let failures = Store_faults.store_failures report in
  if failures <> [] then
    Alcotest.failf "%d store fault(s) crashed or served corrupt data"
      (List.length failures);
  Alcotest.(check bool) "sweep is not vacuous" true
    (report.Store_faults.s_recovered > 0);
  (* Every fault class must be exercised, and every class that corrupts
     committed bytes must quarantine-and-recompute at least once. *)
  List.iter
    (fun fault ->
      let cases =
        List.filter
          (fun (c : Store_faults.store_case) -> c.Store_faults.sfault = fault)
          report.Store_faults.s_cases
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s exercised" (Store_faults.store_fault_name fault))
        true (cases <> []);
      if fault <> Store_faults.Stale_lock then
        Alcotest.(check bool)
          (Printf.sprintf "%s recovered at least once"
             (Store_faults.store_fault_name fault))
          true
          (List.exists
             (fun (c : Store_faults.store_case) ->
               c.Store_faults.soutcome = Store_faults.Store_recovered)
             cases))
    Store_faults.all_store_faults;
  (* The corpses are on disk and in the persistent log, never deleted. *)
  let store = Store.open_store root in
  let logged = Store.read_quarantine_log store in
  Alcotest.(check bool) "quarantine log populated" true (logged <> []);
  Alcotest.(check bool) "quarantined files preserved" true
    (List.for_all
       (fun (q : Store.quarantine) -> Sys.file_exists q.Store.q_moved_to)
       logged)

(* --- concurrency ----------------------------------------------------------- *)

let test_concurrent_single_computation () =
  let root = tmp_dir "elfie_store_race" in
  let store = Store.open_store root in
  let k = Store.key Store.Measurement ~program:"race" [ ("n", "0") ] in
  let computations = Atomic.make 0 in
  let payload = String.init 4096 (fun i -> Char.chr (i mod 253)) in
  let results =
    Pool.map ~jobs:4
      (fun _ ->
        Store.get_or_compute_v store k ~format:1 ~encode:Fun.id
          ~decode:Result.ok (fun () ->
            Atomic.incr computations;
            (* Widen the race window: losers must wait, not recompute. *)
            Unix.sleepf 0.05;
            payload))
      (List.init 8 Fun.id)
  in
  Alcotest.(check int) "exactly one computation" 1 (Atomic.get computations);
  List.iteri
    (fun i r ->
      Alcotest.(check string)
        (Printf.sprintf "reader %d bit-identical" i)
        payload r)
    results;
  Alcotest.(check bool) "lock released" false
    (Sys.file_exists (Store.lock_path_of store k))

let test_concurrent_stale_lock_break () =
  let root = tmp_dir "elfie_store_stale" in
  let store = Store.open_store root in
  let k = Store.key Store.Measurement ~program:"race" [ ("n", "1") ] in
  (* A lock left behind by a dead process guards the (absent) artifact:
     the racers must break it, then still perform exactly one
     computation among themselves. *)
  let oc = open_out_bin (Store.lock_path_of store k) in
  Printf.fprintf oc "ELFIELOCK %d leftover.0\n" dead_pid;
  close_out oc;
  let m_breaks = Metrics.counter "elfie_store_lock_breaks_total" in
  let breaks0 = Metrics.total m_breaks in
  let computations = Atomic.make 0 in
  let payload = "stale-lock-payload" in
  let results =
    Pool.map ~jobs:4
      (fun _ ->
        Store.get_or_compute_v store k ~format:1 ~encode:Fun.id
          ~decode:Result.ok (fun () ->
            Atomic.incr computations;
            Unix.sleepf 0.05;
            payload))
      (List.init 8 Fun.id)
  in
  Alcotest.(check int) "exactly one computation" 1 (Atomic.get computations);
  List.iter (fun r -> Alcotest.(check string) "bit-identical" payload r) results;
  Alcotest.(check bool) "stale lock was broken" true
    (Metrics.total m_breaks -. breaks0 >= 1.0);
  Alcotest.(check bool) "lock released" false
    (Sys.file_exists (Store.lock_path_of store k))

(* Locks whose owner is alive are broken only past the hung-owner
   deadline (60 s); a lock file with unreadable content is broken once
   it is older than a writer's one-line write. *)
let test_aged_and_torn_locks_broken () =
  let store = Store.open_store (tmp_dir "elfie_store_aged") in
  let m_breaks = Metrics.counter "elfie_store_lock_breaks_total" in
  let now = Unix.gettimeofday () in
  List.iter
    (fun (what, content, age) ->
      let k = Store.key Store.Measurement ~program:"aged" [ ("lock", what) ] in
      let lock = Store.lock_path_of store k in
      Out_channel.with_open_bin lock (fun oc -> output_string oc content);
      Unix.utimes lock (now -. age) (now -. age);
      let breaks0 = Metrics.total m_breaks in
      let computations = ref 0 in
      let got =
        Store.get_or_compute_v store k ~format:1 ~encode:Fun.id
          ~decode:Result.ok (fun () ->
            incr computations;
            what)
      in
      Alcotest.(check string) (what ^ ": computed") what got;
      Alcotest.(check int) (what ^ ": exactly one computation") 1 !computations;
      Alcotest.(check (float 0.0)) (what ^ ": lock broken once") 1.0
        (Metrics.total m_breaks -. breaks0);
      Alcotest.(check bool) (what ^ ": lock released") false
        (Sys.file_exists lock))
    [ ("hung owner",
       Printf.sprintf "ELFIELOCK %d hung.0\n" (Unix.getppid ()), 120.0);
      ("torn content", "ELFIELO", 5.0) ]

(* A fresh lock of a live owner is waited on, not broken: the waiter
   serves the owner's commit and never computes. *)
let test_live_lock_waits_for_commit () =
  let store = Store.open_store (tmp_dir "elfie_store_live") in
  let k = Store.key Store.Measurement ~program:"live" [] in
  let lock = Store.lock_path_of store k in
  Out_channel.with_open_bin lock (fun oc ->
      Printf.fprintf oc "ELFIELOCK %d owner.0\n" (Unix.getppid ()));
  let m_waits = Metrics.counter "elfie_store_lock_waits_total" in
  let m_breaks = Metrics.counter "elfie_store_lock_breaks_total" in
  let waits0 = Metrics.total m_waits and breaks0 = Metrics.total m_breaks in
  let owner =
    Domain.spawn (fun () ->
        Unix.sleepf 0.2;
        Store.put store k ~format:1 "owner's commit")
  in
  let got =
    Store.get_or_compute_v store k ~format:1 ~encode:Fun.id
      ~decode:Result.ok (fun () ->
        Alcotest.fail "waiter computed under a live lock")
  in
  Domain.join owner;
  Alcotest.(check string) "owner's commit served" "owner's commit" got;
  Alcotest.(check bool) "the waiter waited" true
    (Metrics.total m_waits -. waits0 >= 1.0);
  Alcotest.(check (float 0.0)) "live lock not broken" 0.0
    (Metrics.total m_breaks -. breaks0);
  Alcotest.(check bool) "owner's lock left in place" true (Sys.file_exists lock);
  Sys.remove lock

(* --- batch driver ---------------------------------------------------------- *)

let farm_params =
  { Driver.default_params with
    max_k = 3; dims = 8; warmup = 1_000L; trials = 1; max_regions = 2 }

let test_driver_cold_warm_incremental () =
  let root = tmp_dir "elfie_farm_batch" in
  let store = Store.open_store root in
  let spec = tiny_spec "batch" in
  let job = Driver.job ~params:farm_params ~name:"tiny" spec in
  let m_loader = Metrics.counter "elfie_loader_runs_total" in
  (* Cold: every stage is a miss and the program actually runs. *)
  let cold = Driver.run ~store [ job ] in
  Alcotest.(check int) "cold run has no hits" 0 cold.Driver.b_hits;
  Alcotest.(check bool) "cold run computes" true (cold.Driver.b_misses > 0);
  let cold_cpi =
    match cold.Driver.outcomes with
    | [ { o_result = Some r; _ } ] -> r.Driver.jr_pred_cpi
    | _ -> Alcotest.fail "cold run did not produce a result"
  in
  Alcotest.(check bool) "cold run predicts a CPI" true (cold_cpi <> None);
  (* Warm: the same manifest is served entirely from cache — zero
     misses, zero program executions. *)
  let runs0 = Metrics.total m_loader in
  let warm = Driver.run ~store [ job ] in
  Alcotest.(check int) "warm run misses nothing" 0 warm.Driver.b_misses;
  Alcotest.(check bool) "warm run hits" true (warm.Driver.b_hits > 0);
  Alcotest.(check (float 0.0)) "warm run executes no program" 0.0
    (Metrics.total m_loader -. runs0);
  (match warm.Driver.outcomes with
  | [ { o_result = Some r; _ } ] ->
      Alcotest.(check bool) "warm result identical" true
        (r.Driver.jr_pred_cpi = cold_cpi)
  | _ -> Alcotest.fail "warm run did not produce a result");
  (* Incremental SimPoint reuse: a changed max_k re-keys the selection
     (and everything behind it) but hits the cached BBV profile — the
     store gains a second selection, never a second profile. *)
  Alcotest.(check int) "one profile cached" 1
    (Store.artifact_count store Store.Bbv);
  Alcotest.(check int) "one selection cached" 1
    (Store.artifact_count store Store.Simpoint);
  let job_k4 =
    Driver.job
      ~params:{ farm_params with max_k = 4 }
      ~name:"tiny-k4" spec
  in
  let rerun = Driver.run ~store [ job_k4 ] in
  Alcotest.(check bool) "changed k still hits the profile" true
    (rerun.Driver.b_hits >= 1);
  Alcotest.(check int) "profile not recomputed" 1
    (Store.artifact_count store Store.Bbv);
  Alcotest.(check int) "selection re-keyed" 2
    (Store.artifact_count store Store.Simpoint)

let test_driver_resume () =
  let root = tmp_dir "elfie_farm_resume" in
  let store = Store.open_store root in
  let spec = tiny_spec "resume" in
  let j1 = Driver.job ~params:farm_params ~name:"one" spec in
  let j2 =
    Driver.job ~params:{ farm_params with max_k = 4 } ~name:"two" spec
  in
  let jpath = Filename.temp_file "elfie_farm_journal" ".j" in
  (* First run finishes only job one, then the driver "dies". *)
  let journal = Journal.open_file jpath in
  let b1 = Driver.run ~store ~journal [ j1 ] in
  Journal.close journal;
  Alcotest.(check int) "first run skipped nothing" 0 b1.Driver.b_skipped;
  (* Resume with the full manifest: job one is satisfied from the
     journal (nothing runs, not even cache lookups), job two runs. *)
  let journal = Journal.open_file jpath in
  let b2 = Driver.run ~store ~journal ~resume:true [ j1; j2 ] in
  Journal.close journal;
  Alcotest.(check int) "resume skipped the finished job" 1
    b2.Driver.b_skipped;
  (match b2.Driver.outcomes with
  | [ o1; o2 ] ->
      Alcotest.(check bool) "job one skipped" true o1.Driver.o_skipped;
      Alcotest.(check bool) "job two ran" false o2.Driver.o_skipped;
      Alcotest.(check bool) "job two produced a result" true
        (o2.Driver.o_result <> None)
  | _ -> Alcotest.fail "expected two outcomes");
  (* A changed parameter invalidates the journal record: nothing skips. *)
  let j1' =
    Driver.job ~params:{ farm_params with trials = 2 } ~name:"one" spec
  in
  let journal = Journal.open_file jpath in
  let b3 = Driver.run ~store ~journal ~resume:true [ j1' ] in
  Journal.close journal;
  Alcotest.(check int) "changed inputs re-run" 0 b3.Driver.b_skipped;
  Sys.remove jpath

let test_driver_survives_corrupt_cache () =
  let root = tmp_dir "elfie_farm_corrupt" in
  let store = Store.open_store root in
  let spec = tiny_spec "corrupt" in
  let job = Driver.job ~params:farm_params ~name:"tiny" spec in
  let cold = Driver.run ~store [ job ] in
  Alcotest.(check bool) "cold run computes" true (cold.Driver.b_misses > 0);
  (* Flip the last byte of the cached BBV profile (payload region): the
     warm run must quarantine it, recompute, and still succeed. *)
  let bbv_key =
    Codec.bbv_key ~program:(program_bytes spec)
      ~slice_size:farm_params.Driver.slice_size
      ~seed:farm_params.Driver.base_seed ()
  in
  let path = Store.path_of store bbv_key in
  let ic = open_in_bin path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string raw in
  let last = Bytes.length b - 1 in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0x40));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  let warm = Driver.run ~store [ job ] in
  Alcotest.(check bool) "corrupt profile quarantined" true
    (List.exists
       (fun (q : Store.quarantine) -> q.Store.q_kind = "bbv")
       warm.Driver.b_store_quarantines);
  Alcotest.(check bool) "profile recomputed" true (warm.Driver.b_misses >= 1);
  match warm.Driver.outcomes with
  | [ { o_result = Some _; o_skipped = false; _ } ] -> ()
  | _ -> Alcotest.fail "batch did not survive the corrupt cache entry"

let test_driver_rejects_duplicate_names () =
  let store = Store.open_store (tmp_dir "elfie_farm_dupes") in
  let spec = tiny_spec "dupes" in
  let j = Driver.job ~params:farm_params ~name:"same" spec in
  let j' = Driver.job ~params:{ farm_params with max_k = 4 } ~name:"same" spec in
  (match Driver.run ~store [ j; j' ] with
  | _ -> Alcotest.fail "duplicate job names accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int64) "nothing ran" 0L (Store.size_bytes store)

(* Journal resume keys on [job_inputs]: equal for identically built
   jobs, different as soon as the name, the benchmark or any parameter
   changes. *)
let test_job_inputs () =
  let spec = tiny_spec "inputs" in
  let inputs ?(name = "j") ?(spec = spec) params =
    Driver.job_inputs (Driver.job ~params ~name spec)
  in
  Alcotest.(check (list string)) "deterministic" (inputs farm_params)
    (inputs farm_params);
  List.iter
    (fun (what, changed) ->
      Alcotest.(check bool) (what ^ " changes the inputs") true
        (changed <> inputs farm_params))
    [ ("name", inputs ~name:"k" farm_params);
      ("benchmark", inputs ~spec:(tiny_spec "other") farm_params);
      ("slice", inputs { farm_params with slice_size = 20_000L });
      ("max-k", inputs { farm_params with max_k = 4 });
      ("dims", inputs { farm_params with dims = 16 });
      ("simpoint seed", inputs { farm_params with sp_seed = 99L });
      ("warmup", inputs { farm_params with warmup = 2_000L });
      ("trials", inputs { farm_params with trials = 2 });
      ("base seed", inputs { farm_params with base_seed = 99L });
      ("regions", inputs { farm_params with max_regions = 3 }) ]

(* --- manifest -------------------------------------------------------------- *)

let test_manifest_parsing () =
  let ok =
    Driver.manifest_of_string ~artifact:"m"
      "# comment\n\
       \n\
       leela bench=541.leela_r max-k=4 trials=1\n\
       mcf bench=505.mcf_r slice=20000 regions=2\n"
  in
  (match ok with
  | Ok [ a; b ] ->
      Alcotest.(check string) "first job" "leela" a.Driver.j_name;
      Alcotest.(check int) "max-k parsed" 4 a.Driver.j_params.Driver.max_k;
      Alcotest.(check int) "trials parsed" 1 a.Driver.j_params.Driver.trials;
      Alcotest.(check int64) "slice parsed" 20_000L
        b.Driver.j_params.Driver.slice_size;
      Alcotest.(check int) "regions parsed" 2
        b.Driver.j_params.Driver.max_regions
  | Ok _ -> Alcotest.fail "expected two jobs"
  | Error d -> Alcotest.failf "manifest rejected: %a" Elfie_util.Diag.pp d);
  let bad what s =
    match Driver.manifest_of_string ~artifact:"m" s with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error _ -> ()
  in
  bad "missing bench" "job slice=100\n";
  bad "unknown benchmark" "job bench=no-such-benchmark\n";
  bad "unknown key" "job bench=541.leela_r nope=1\n";
  bad "bad integer" "job bench=541.leela_r slice=ten\n";
  bad "zero slice" "job bench=541.leela_r slice=0\n";
  bad "negative slice" "job bench=541.leela_r slice=-5\n";
  bad "zero max-k" "job bench=505.mcf_r max-k=0\n";
  bad "negative max-k" "job bench=505.mcf_r max-k=-3\n";
  bad "zero dims" "job bench=505.mcf_r dims=0\n";
  bad "zero trials" "job bench=505.mcf_r trials=0\n";
  bad "negative warmup" "job bench=505.mcf_r warmup=-50000\n"

(* Two `elfied run --resume` processes race the same journal and
   store, and one of them is SIGKILLed mid-run — the abandoned locks and any torn trailing journal line must not stop
   the survivor, and a warm resume afterwards must satisfy every job
   from the journal without running anything. Real subprocesses (not
   forks): OCaml 5 forbids fork once pool domains have ever been
   spawned, and the CLI is the surface under test. *)
let elfied_exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    "../../bin/elfied.exe"

let test_concurrent_resume_kill () =
  let root = tmp_dir "elfie_farm_race_resume" in
  let store_root = Filename.concat root "store" in
  let jpath = Filename.concat root "journal.j1" in
  let manifest = Filename.concat root "manifest" in
  let out f =
    Out_channel.with_open_text f (fun oc ->
        output_string oc
          "ra bench=541.leela_r max-k=3 warmup=1000 trials=1 regions=2\n\
           rb bench=541.leela_r max-k=4 warmup=1000 trials=1 regions=2\n")
  in
  out manifest;
  let jobs =
    match Driver.load_manifest manifest with
    | Ok jobs -> jobs
    | Error d -> Alcotest.failf "manifest rejected: %a" Elfie_util.Diag.pp d
  in
  let spawn_driver () =
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process elfied_exe
        [| elfied_exe; "run"; manifest; "--store"; store_root; "--journal";
           jpath; "--resume" |]
        Unix.stdin devnull devnull
    in
    Unix.close devnull;
    pid
  in
  let survivor = spawn_driver () in
  let victim = spawn_driver () in
  Unix.sleepf 0.3;
  Unix.kill victim Sys.sigkill;
  let _, victim_status = Unix.waitpid [] victim in
  let _, survivor_status = Unix.waitpid [] survivor in
  (match victim_status with
  | Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | Unix.WEXITED 0 -> () (* finished before the kill landed; still valid *)
  | _ -> Alcotest.fail "victim neither killed nor graceful");
  (match survivor_status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.failf "survivor exited %d" n
  | _ -> Alcotest.fail "survivor did not exit normally");
  (* Warm resume: the journal (including whatever the victim left
     behind) satisfies both jobs; nothing runs, nothing is recomputed. *)
  let store = Store.open_store store_root in
  let journal = Journal.open_file jpath in
  let m_loader = Metrics.counter "elfie_loader_runs_total" in
  let runs0 = Metrics.total m_loader in
  let warm = Driver.run ~store ~journal ~resume:true jobs in
  Journal.close journal;
  Alcotest.(check int) "warm resume skips both jobs" 2 warm.Driver.b_skipped;
  Alcotest.(check int) "warm resume misses nothing" 0 warm.Driver.b_misses;
  Alcotest.(check (float 0.0)) "warm resume executes no program" 0.0
    (Metrics.total m_loader -. runs0);
  Alcotest.(check int) "warm resume quarantines nothing" 0
    warm.Driver.b_quarantined

(* Run [elfied args], returning its exit status and standard output. *)
let run_elfied args =
  let out = Filename.temp_file "elfied" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process elfied_exe
      (Array.of_list (elfied_exe :: args))
      Unix.stdin fd Unix.stderr
  in
  Unix.close fd;
  let _, status = Unix.waitpid [] pid in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (status, String.split_on_char '\n' text)

let check_exit what = function
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.failf "%s exited %d" what n
  | _ -> Alcotest.failf "%s did not exit normally" what

let test_elfied_stats () =
  let root = tmp_dir "elfied_stats" in
  let store = Store.open_store root in
  List.iter
    (fun (kind, name) ->
      Store.put store (Store.key kind ~program:name []) ~format:1 name)
    [ (Store.Bbv, "a"); (Store.Bbv, "b"); (Store.Measurement, "c") ];
  let skewed = Store.key Store.Elfie ~program:"skewed" [] in
  Store.put store skewed ~format:1 "skewed";
  ignore (Store.get store skewed ~format:2);
  let status, lines = run_elfied [ "stats"; "--store"; root ] in
  check_exit "elfied stats" status;
  let expect line =
    Alcotest.(check bool) (Printf.sprintf "prints %S" line) true
      (List.mem line lines)
  in
  expect (Printf.sprintf "store %s: %Ld bytes" root (Store.size_bytes store));
  List.iter
    (fun (kind, n) ->
      expect (Printf.sprintf "  %-12s %d artifact(s)" (Store.kind_name kind) n))
    [ (Store.Pinball, 0); (Store.Bbv, 2); (Store.Simpoint, 0); (Store.Elfie, 0);
      (Store.Measurement, 1) ];
  let qcount, qbytes, _ = Store.quarantine_stats store in
  expect (Printf.sprintf "  %-12s %d file(s), %Ld bytes" "quarantine" qcount qbytes);
  expect (Printf.sprintf "    %-20s %d" "format-skew" 1)

(* [gc --dry-run] prints exactly the eviction plan and deletes nothing;
   [gc] then removes those artifacts and no others. *)
let test_elfied_gc () =
  let store, order = aged_store "elfied_gc" in
  let root = Store.root store in
  let bytes k = (Unix.stat (Store.path_of store k)).Unix.st_size in
  let newest = List.filteri (fun i _ -> i >= 2) order in
  let budget = List.fold_left (fun n k -> n + bytes k) 0 newest in
  let before = Store.size_bytes store in
  let status, lines =
    run_elfied
      [ "gc"; "--store"; root; "--max-bytes"; string_of_int budget; "--dry-run" ]
  in
  check_exit "elfied gc --dry-run" status;
  let would =
    List.filter
      (fun l -> String.length l > 11 && String.sub l 0 11 = "would evict")
      lines
  in
  (* [aged_store]'s two oldest artifacts: a profile, then a measurement. *)
  Alcotest.(check (list string)) "dry run lists the plan, oldest first"
    (List.map
       (fun (kind, k) ->
         Printf.sprintf "would evict %-12s %s (%d bytes)" (Store.kind_name kind)
           (Store.digest k) (bytes k))
       [ (Store.Bbv, List.nth order 0); (Store.Measurement, List.nth order 1) ])
    would;
  Alcotest.(check bool) "dry run deletes nothing" true
    (List.for_all (fun k -> Sys.file_exists (Store.path_of store k)) order);
  let status, lines =
    run_elfied [ "gc"; "--store"; root; "--max-bytes"; string_of_int budget ]
  in
  check_exit "elfied gc" status;
  Alcotest.(check bool) "reports the eviction" true
    (List.mem
       (Printf.sprintf "evicted 2 artifact(s): %Ld -> %Ld bytes (budget %d)"
          before (Store.size_bytes store) budget)
       lines);
  List.iteri
    (fun i k ->
      Alcotest.(check bool)
        (Printf.sprintf "artifact %d %s" i (if i < 2 then "evicted" else "kept"))
        (i >= 2) (Sys.file_exists (Store.path_of store k)))
    order

let () =
  Alcotest.run "farm"
    [
      ( "store",
        [
          Alcotest.test_case "key normalization" `Quick test_key_normalization;
          Alcotest.test_case "put/get roundtrip + skew" `Quick
            test_put_get_roundtrip;
          Alcotest.test_case "codec roundtrips" `Slow test_codec_roundtrips;
          Alcotest.test_case "corruption sweep" `Slow test_store_fault_sweep;
          Alcotest.test_case "race: exactly one computation" `Quick
            test_concurrent_single_computation;
          Alcotest.test_case "race: stale lock broken" `Quick
            test_concurrent_stale_lock_break;
          Alcotest.test_case "commit survives reopen" `Quick
            test_commit_survives_reopen;
          Alcotest.test_case "size and artifact counts" `Quick
            test_size_and_counts;
          Alcotest.test_case "eviction plan order" `Quick
            test_eviction_plan_order;
          Alcotest.test_case "evict matches the plan" `Quick
            test_evict_matches_plan;
          Alcotest.test_case "quarantine stats" `Quick test_quarantine_stats;
          Alcotest.test_case "quarantine log and metric" `Quick
            test_quarantine_log_and_metric;
          Alcotest.test_case "locks: hung owner and torn content broken" `Quick
            test_aged_and_torn_locks_broken;
          Alcotest.test_case "locks: live owner waited on" `Quick
            test_live_lock_waits_for_commit;
        ] );
      ( "codec",
        [
          Alcotest.test_case "key builders" `Quick test_key_builders;
          Alcotest.test_case "decoders reject malformed payloads" `Slow
            test_decoders_reject_malformed;
          Alcotest.test_case "cached wrappers: miss then hit" `Slow
            test_cached_wrappers;
          Alcotest.test_case "undecodable artifact recomputed" `Quick
            test_undecodable_recomputed;
          Alcotest.test_case "corrupt artifact recomputed" `Quick
            test_cached_corruption_recomputed;
        ] );
      ( "driver",
        [
          Alcotest.test_case "manifest parsing" `Quick test_manifest_parsing;
          Alcotest.test_case "duplicate job names rejected" `Quick
            test_driver_rejects_duplicate_names;
          Alcotest.test_case "job inputs track parameters" `Quick
            test_job_inputs;
          Alcotest.test_case "cold/warm/incremental" `Slow
            test_driver_cold_warm_incremental;
          Alcotest.test_case "journal resume" `Slow test_driver_resume;
          Alcotest.test_case "corrupt cache survived" `Slow
            test_driver_survives_corrupt_cache;
          Alcotest.test_case "concurrent resume, one driver killed" `Slow
            test_concurrent_resume_kill;
        ] );
      ( "elfied",
        [
          Alcotest.test_case "stats" `Quick test_elfied_stats;
          Alcotest.test_case "gc --dry-run predicts gc" `Quick test_elfied_gc;
        ] );
    ]
