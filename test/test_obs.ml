(* Unit tests for the observability layer: span nesting and ordering,
   Chrome trace_event export (verified by parsing the JSON back),
   histogram bucket boundaries, Prometheus text-format escaping, the
   deterministic hot-region profiler, and an end-to-end check that a
   pipeline validation emits spans from every execution layer. *)

module Trace = Elfie_obs.Trace
module Metrics = Elfie_obs.Metrics
module Profile = Elfie_obs.Profile

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* --- a minimal JSON parser, enough to verify the Chrome export ------------- *)

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c = if peek () = c then advance () else fail (Printf.sprintf "expected %c" c) in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char buf '"'; advance ()
          | '\\' -> Buffer.add_char buf '\\'; advance ()
          | '/' -> Buffer.add_char buf '/'; advance ()
          | 'b' -> Buffer.add_char buf '\b'; advance ()
          | 'f' -> Buffer.add_char buf '\012'; advance ()
          | 'n' -> Buffer.add_char buf '\n'; advance ()
          | 'r' -> Buffer.add_char buf '\r'; advance ()
          | 't' -> Buffer.add_char buf '\t'; advance ()
          | 'u' ->
              advance ();
              if !pos + 4 > n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              if code < 256 then Buffer.add_char buf (Char.chr code)
              else Buffer.add_char buf '?'
          | _ -> fail "bad escape");
          go ()
      | c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then (advance (); J_obj [])
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); members ((k, v) :: acc)
            | '}' -> advance (); List.rev ((k, v) :: acc)
            | _ -> fail "expected , or }"
          in
          J_obj (members [])
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then (advance (); J_arr [])
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); elements (v :: acc)
            | ']' -> advance (); List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          J_arr (elements [])
        end
    | '"' -> J_str (parse_string ())
    | 't' -> pos := !pos + 4; J_bool true
    | 'f' -> pos := !pos + 5; J_bool false
    | 'n' -> pos := !pos + 4; J_null
    | _ ->
        let start = !pos in
        while
          !pos < n
          && (match s.[!pos] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false)
        do
          advance ()
        done;
        if !pos = start then fail "unexpected character";
        J_num (float_of_string (String.sub s start (!pos - start)))
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let obj_field j k =
  match j with
  | J_obj fields -> List.assoc_opt k fields
  | _ -> None

(* --- tracing ---------------------------------------------------------------- *)

let test_span_nesting_and_ordering () =
  Trace.reset ();
  Trace.with_span "outer" (fun _ ->
      Trace.instant "mark";
      Trace.with_span "inner" (fun sp -> Trace.add_attr sp "k" (Trace.I 7L)));
  Alcotest.(check int) "three events emitted" 3 (Trace.emitted ());
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped ());
  (* Completion order: the instant, then the inner span, then the outer. *)
  (match Trace.events () with
  | [ Trace.Instant i; Trace.Span inner; Trace.Span outer ] ->
      Alcotest.(check string) "instant name" "mark" i.name;
      Alcotest.(check string) "inner name" "inner" inner.name;
      Alcotest.(check string) "outer name" "outer" outer.name;
      Alcotest.(check int) "outer depth" 0 outer.depth;
      Alcotest.(check int) "inner depth" 1 inner.depth;
      Alcotest.(check int) "instant depth" 1 i.depth;
      Alcotest.(check bool) "outer began first" true (outer.seq < inner.seq);
      Alcotest.(check bool) "inner attr kept" true
        (List.assoc_opt "k" inner.attrs = Some (Trace.I 7L))
  | evs -> Alcotest.failf "unexpected event shape (%d events)" (List.length evs));
  Alcotest.(check (list string)) "span names in completion order"
    [ "inner"; "outer" ] (Trace.span_names ())

let test_span_error_attr_on_exception () =
  Trace.reset ();
  (try Trace.with_span "boom" (fun _ -> failwith "kaputt")
   with Failure _ -> ());
  match Trace.events () with
  | [ Trace.Span s ] ->
      Alcotest.(check bool) "error attr recorded" true
        (match List.assoc_opt "error" s.attrs with
        | Some (Trace.S msg) -> contains msg "kaputt"
        | _ -> false)
  | _ -> Alcotest.fail "expected exactly the failed span"

let test_chrome_json_roundtrip () =
  Trace.reset ();
  Trace.with_span "json.span"
    ~attrs:[ ("msg", Trace.S "a\"b\\c\nd\tcontrol:\x01"); ("n", Trace.I 42L) ]
    (fun _ -> Trace.instant "json.instant" ~attrs:[ ("ok", Trace.B true) ]);
  let parsed = parse_json (Trace.to_chrome ()) in
  let all =
    match obj_field parsed "traceEvents" with
    | Some (J_arr l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  (* Track-naming metadata rides along; the payload events follow it. *)
  let meta, events =
    List.partition (fun e -> obj_field e "ph" = Some (J_str "M")) all
  in
  Alcotest.(check int) "process and thread metadata" 2 (List.length meta);
  Alcotest.(check int) "two events exported" 2 (List.length events);
  let find name =
    List.find_opt (fun e -> obj_field e "name" = Some (J_str name)) events
  in
  (match find "json.span" with
  | Some span -> (
      Alcotest.(check bool) "complete-event phase" true
        (obj_field span "ph" = Some (J_str "X"));
      Alcotest.(check bool) "duration present" true
        (match obj_field span "dur" with Some (J_num _) -> true | _ -> false);
      match obj_field span "args" with
      | Some args ->
          Alcotest.(check bool) "string attr roundtrips exactly" true
            (obj_field args "msg" = Some (J_str "a\"b\\c\nd\tcontrol:\x01"));
          Alcotest.(check bool) "int attr roundtrips" true
            (obj_field args "n" = Some (J_num 42.0))
      | None -> Alcotest.fail "span has no args")
  | None -> Alcotest.fail "span missing from export");
  match find "json.instant" with
  | Some i ->
      Alcotest.(check bool) "instant phase" true
        (obj_field i "ph" = Some (J_str "i"))
  | None -> Alcotest.fail "instant missing from export"

(* --- metrics ---------------------------------------------------------------- *)

let test_histogram_bucket_boundaries () =
  let h =
    Metrics.histogram "obstest_latency" ~buckets:[ 1.0; 2.0; 5.0 ]
      ~help:"test histogram"
  in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 2.0; 7.0 ];
  let buckets, sum, count = Metrics.bucket_snapshot h in
  (* Buckets are cumulative and boundary values land in their own bucket
     (v <= le): 0.5 and the exact 1.0 in le=1, 1.5 and the exact 2.0 in
     le=2, nothing between 2 and 5, and 7.0 only in +Inf. *)
  Alcotest.(check (list (pair (float 1e-9) int)))
    "cumulative buckets"
    [ (1.0, 2); (2.0, 4); (5.0, 4); (infinity, 5) ]
    buckets;
  Alcotest.(check (float 1e-9)) "sum" 12.0 sum;
  Alcotest.(check int) "count" 5 count;
  Alcotest.(check (float 1e-9)) "value is the observation count" 5.0
    (Metrics.value h)

let test_counter_kind_mismatch_rejected () =
  let (_ : Metrics.family) = Metrics.counter "obstest_kindclash" in
  match Metrics.gauge "obstest_kindclash" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch accepted"

let test_prometheus_escaping () =
  let c =
    Metrics.counter "obstest_paths_total"
      ~help:"backslash \\ and\nnewline in help"
  in
  Metrics.inc c ~labels:[ ("path", "C:\\dir"); ("msg", "line1\nline2 \"q\"") ];
  let exposition = Metrics.exposition () in
  Alcotest.(check bool) "label backslash escaped" true
    (contains exposition "path=\"C:\\\\dir\"");
  Alcotest.(check bool) "label newline and quote escaped" true
    (contains exposition "msg=\"line1\\nline2 \\\"q\\\"\"");
  Alcotest.(check bool) "help newline escaped" true
    (contains exposition "backslash \\\\ and\\nnewline in help");
  Alcotest.(check bool) "TYPE header present" true
    (contains exposition "# TYPE obstest_paths_total counter")

(* --- profiler --------------------------------------------------------------- *)

let feed_synthetic p =
  (* A fixed 13-pc loop: deterministic, with a block boundary at the
     loop's end. *)
  for i = 0 to 9_999 do
    let pc = Int64.of_int (0x1000 + (i mod 13 * 4)) in
    Profile.note_block p ~tid:0 ~pcs:[| pc |] ~n:1 ~ends_block:(i mod 13 = 12)
  done

let test_profiler_deterministic_topk () =
  (match Profile.create ~interval:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "interval 0 accepted");
  let p1 = Profile.create ~interval:7 () in
  let p2 = Profile.create ~interval:7 () in
  feed_synthetic p1;
  feed_synthetic p2;
  Alcotest.(check Tutil.i64) "all instructions counted" 10_000L
    (Profile.instructions p1);
  Alcotest.(check Tutil.i64) "count-driven sample count" (Int64.of_int (10_000 / 7))
    (Profile.samples p1);
  Alcotest.(check bool) "identical runs, identical hot pcs" true
    (Profile.hot_pcs ~k:5 p1 = Profile.hot_pcs ~k:5 p2);
  Alcotest.(check bool) "identical hot blocks" true
    (Profile.hot_blocks ~k:5 p1 = Profile.hot_blocks ~k:5 p2);
  (* Ties break by ascending address, so the top-k listing is stable. *)
  let pcs = List.map fst (Profile.hot_pcs ~k:100 p1) in
  let rec sorted_where_tied = function
    | (a, ca) :: ((b, cb) :: _ as rest) ->
        (ca <> cb || Int64.unsigned_compare a b < 0) && sorted_where_tied rest
    | _ -> true
  in
  Alcotest.(check bool) "ties ordered by address" true
    (sorted_where_tied (Profile.hot_pcs ~k:100 p1));
  Alcotest.(check int) "thirteen distinct pcs at most" 13 (List.length pcs);
  let report = Profile.report ~k:3 p1 in
  Alcotest.(check bool) "report names a hot pc" true (contains report "0x1000");
  Profile.reset p1;
  Alcotest.(check Tutil.i64) "reset clears" 0L (Profile.instructions p1)

(* --- chrome metadata and trace id -------------------------------------------- *)

let trace_events j =
  match obj_field j "traceEvents" with
  | Some (J_arr evs) -> evs
  | _ -> Alcotest.fail "no traceEvents array"

let has_meta evs ~name ~pid ~track =
  List.exists
    (fun e ->
      obj_field e "ph" = Some (J_str "M")
      && obj_field e "name" = Some (J_str name)
      && obj_field e "pid" = Some (J_num (float_of_int pid))
      && match obj_field e "args" with
         | Some args -> obj_field args "name" = Some (J_str track)
         | None -> false)
    evs

let test_chrome_metadata () =
  Trace.reset ();
  Trace.with_span "chrome.a" (fun _ -> ());
  let file_a = Trace.to_chrome ~pid:101 ~label:"proc-a" () in
  Trace.reset ();
  (* The export names its process and thread tracks. *)
  let ja = parse_json file_a in
  Alcotest.(check bool) "process_name metadata" true
    (has_meta (trace_events ja) ~name:"process_name" ~pid:101 ~track:"proc-a");
  Alcotest.(check bool) "thread_name metadata" true
    (has_meta (trace_events ja) ~name:"thread_name" ~pid:101 ~track:"main")

(* --- end to end: a pipeline validation traces every layer ------------------- *)

let test_pipeline_emits_layered_spans () =
  Trace.reset ();
  Metrics.reset ();
  Profile.set_global (Some (Profile.create ~interval:97 ()));
  Fun.protect
    ~finally:(fun () -> Profile.set_global None)
    (fun () ->
      let b =
        { Elfie_workloads.Suite.bname = "tinyobs";
          spec = Tutil.tiny_spec "tinyobs" }
      in
      let params =
        { Elfie_simpoint.Simpoint.default_params with
          slice_size = 10_000L; warmup = 20_000L; max_k = 6 }
      in
      let (_ : Elfie_harness.Pipeline.validation) =
        Elfie_harness.Pipeline.validate ~params ~trials:2 b
      in
      (* Exactly one span per pipeline stage. *)
      let names = Trace.span_names () in
      List.iter
        (fun stage ->
          Alcotest.(check int) ("one span for " ^ stage) 1
            (List.length (List.filter (( = ) stage) names)))
        [ "pipeline.profile"; "pipeline.select"; "pipeline.native_whole";
          "pipeline.regions"; "pipeline.summarize" ];
      (* Spans from at least three layers of the stack. *)
      let layer prefix =
        List.exists
          (fun n ->
            String.length n > String.length prefix
            && String.sub n 0 (String.length prefix) = prefix)
          names
      in
      Alcotest.(check bool) "pipeline layer traced" true (layer "pipeline.");
      Alcotest.(check bool) "supervisor layer traced" true (layer "supervisor.");
      Alcotest.(check bool) "runner layer traced" true (layer "runner.");
      (* The Chrome export of a real run parses. *)
      (match parse_json (Trace.to_chrome ()) with
      | J_obj _ as j ->
          (match obj_field j "traceEvents" with
          | Some (J_arr evs) ->
              Alcotest.(check bool) "trace export non-empty" true (evs <> [])
          | _ -> Alcotest.fail "no traceEvents in export")
      | _ -> Alcotest.fail "chrome export is not an object");
      (* The run populated a real metrics registry... *)
      Alcotest.(check bool) "at least 8 metric families" true
        (List.length (Metrics.families ()) >= 8);
      let exposition = Metrics.exposition () in
      Alcotest.(check bool) "runner families exported" true
        (contains exposition "# TYPE elfie_loader_runs_total counter");
      Alcotest.(check bool) "supervisor families exported" true
        (contains exposition "# TYPE elfie_runs_total counter");
      (* ... and the global profiler saw the native region runs. *)
      match Profile.global () with
      | Some p ->
          Alcotest.(check bool) "profiler sampled the run" true
            (Profile.samples p > 0L);
          Alcotest.(check bool) "hot-region report non-empty" true
            (Profile.hot_pcs ~k:1 p <> [])
      | None -> Alcotest.fail "global profiler vanished")

let suite =
  [
    Alcotest.test_case "span nesting and ordering" `Quick
      test_span_nesting_and_ordering;
    Alcotest.test_case "exception closes span with error" `Quick
      test_span_error_attr_on_exception;
    Alcotest.test_case "chrome json roundtrip" `Quick test_chrome_json_roundtrip;
    Alcotest.test_case "histogram bucket boundaries" `Quick
      test_histogram_bucket_boundaries;
    Alcotest.test_case "metric kind mismatch rejected" `Quick
      test_counter_kind_mismatch_rejected;
    Alcotest.test_case "prometheus escaping" `Quick test_prometheus_escaping;
    Alcotest.test_case "profiler deterministic top-k" `Quick
      test_profiler_deterministic_topk;
    Alcotest.test_case "chrome metadata and trace id" `Quick
      test_chrome_metadata;
    Alcotest.test_case "pipeline emits layered spans" `Slow
      test_pipeline_emits_layered_spans;
  ]
