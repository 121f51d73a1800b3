type value = S of string | I of int64 | F of float | B of bool
type attrs = (string * value) list

type event =
  | Span of {
      name : string;
      ts : float;
      dur : float;
      depth : int;
      seq : int;
      attrs : attrs;
    }
  | Instant of {
      name : string; ts : float; depth : int; seq : int; attrs : attrs;
    }

type span = {
  sp_name : string;
  sp_ts : float;
  sp_seq : int;
  sp_depth : int;
  mutable sp_attrs : attrs;
  mutable sp_live : bool;
}

let enabled_flag = ref true
let capacity = ref 65536
let epoch = ref (Unix.gettimeofday ())
let seq = ref 0
let depth = ref 0

(* Newest-first; once full, later events are counted, not stored. *)
let buf : event list ref = ref []
let buf_len = ref 0
let dropped_count = ref 0
let emitted_count = ref 0

(* The ring state above is process-global and fed from pool worker
   domains, so every mutation and every reader snapshot takes this
   lock. Span records themselves are owned by the domain that opened
   them; only buffer/sequence state is shared. *)
let lock = Mutex.create ()
let[@inline] locked f = Mutex.protect lock f

let set_enabled b = enabled_flag := b
let set_capacity n = locked (fun () -> capacity := max 1 n)

let now_us () = (Unix.gettimeofday () -. !epoch) *. 1e6

let push_unlocked ev =
  incr emitted_count;
  if !buf_len >= !capacity then incr dropped_count
  else begin
    buf := ev :: !buf;
    incr buf_len
  end

let dummy_span =
  { sp_name = ""; sp_ts = 0.0; sp_seq = 0; sp_depth = 0; sp_attrs = [];
    sp_live = false }

let begin_span ?(attrs = []) name =
  if not !enabled_flag then dummy_span
  else
    locked (fun () ->
        incr seq;
        let sp =
          { sp_name = name; sp_ts = now_us (); sp_seq = !seq;
            sp_depth = !depth; sp_attrs = attrs; sp_live = true }
        in
        incr depth;
        sp)

let add_attr sp key v = if sp.sp_live then sp.sp_attrs <- sp.sp_attrs @ [ (key, v) ]

let end_span ?(attrs = []) sp =
  if sp.sp_live then begin
    sp.sp_live <- false;
    locked (fun () ->
        depth := max 0 (!depth - 1);
        push_unlocked
          (Span
             {
               name = sp.sp_name;
               ts = sp.sp_ts;
               dur = Float.max 0.0 (now_us () -. sp.sp_ts);
               depth = sp.sp_depth;
               seq = sp.sp_seq;
               attrs = sp.sp_attrs @ attrs;
             }))
  end

let with_span ?attrs name f =
  let sp = begin_span ?attrs name in
  match f sp with
  | v ->
      end_span sp;
      v
  | exception exn ->
      end_span sp ~attrs:[ ("error", S (Printexc.to_string exn)) ];
      raise exn

let instant ?(attrs = []) name =
  if !enabled_flag then
    locked (fun () ->
        incr seq;
        push_unlocked
          (Instant { name; ts = now_us (); depth = !depth; seq = !seq; attrs }))

let events () = locked (fun () -> List.rev !buf)
let emitted () = locked (fun () -> !emitted_count)
let dropped () = locked (fun () -> !dropped_count)

let span_names () =
  List.filter_map
    (function Span { name; _ } -> Some name | Instant _ -> None)
    (events ())

let reset () =
  locked (fun () ->
      buf := [];
      buf_len := 0;
      dropped_count := 0;
      emitted_count := 0;
      seq := 0;
      depth := 0;
      epoch := Unix.gettimeofday ())

(* --- Chrome trace_event export --------------------------------------- *)

let json_escape = Json.escape

let json_of_value = function
  | S s -> Printf.sprintf "\"%s\"" (json_escape s)
  | I i -> Int64.to_string i
  | F f ->
      if Float.is_finite f then Printf.sprintf "%.6g" f
      else Printf.sprintf "\"%h\"" f
  | B b -> if b then "true" else "false"

let json_args attrs =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\":%s" (json_escape k) (json_of_value v))
         attrs)
  ^ "}"

let chrome_event ~pid = function
  | Span { name; ts; dur; attrs; _ } ->
      Printf.sprintf
        "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":1,\"args\":%s}"
        (json_escape name) ts dur pid (json_args attrs)
  | Instant { name; ts; attrs; _ } ->
      Printf.sprintf
        "{\"name\":\"%s\",\"ph\":\"i\",\"ts\":%.3f,\"s\":\"t\",\"pid\":%d,\"tid\":1,\"args\":%s}"
        (json_escape name) ts pid (json_args attrs)

(* "ph":"M" metadata names the per-process and per-thread tracks, so the
   trace reads as named lanes in Perfetto instead of bare numeric
   pids. *)
let chrome_metadata ~pid ~label =
  [
    Printf.sprintf
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
      pid (json_escape label);
    Printf.sprintf
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":1,\"args\":{\"name\":\"main\"}}"
      pid;
  ]

let to_chrome () =
  let pid = Unix.getpid () in
  let label = Filename.basename Sys.executable_name in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iter
    (fun line ->
      Buffer.add_string b line;
      Buffer.add_char b ',')
    (chrome_metadata ~pid ~label);
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (chrome_event ~pid ev))
    (events ());
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents b

let write_chrome path =
  let oc = open_out_bin path in
  output_string oc (to_chrome ());
  output_char oc '\n';
  close_out oc
