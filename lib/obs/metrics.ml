type kind = Counter | Gauge | Histogram

type family = {
  name : string;
  kind : kind;
  help : string;
  buckets : float array;  (* ascending upper bounds; empty unless histogram *)
}

let name_of f = f.name

type series =
  | Value of float ref
  | Hist of {
      le : float array;
      counts : int array;  (* per-bucket (not cumulative); last = +Inf *)
      mutable sum : float;
      mutable count : int;
    }

type entry = {
  fam : family;
  order : int;
  series : (string, (string * string) list * series) Hashtbl.t;
}

let registry : (string, entry) Hashtbl.t = Hashtbl.create 64
let next_order = ref 0

(* The registry is process-global and mutated from worker domains
   (pool-parallel validation and trials), so every entry point that
   touches [registry] or a series takes this lock. Internal helpers are
   [_unlocked]: OCaml mutexes are not reentrant. *)
let lock = Mutex.create ()
let[@inline] locked f = Mutex.protect lock f

let default_buckets =
  [| 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0 |]

let register_unlocked fam =
  match Hashtbl.find_opt registry fam.name with
  | Some e ->
      if e.fam.kind <> fam.kind then
        invalid_arg
          (Printf.sprintf "Metrics: %s already registered with another kind"
             fam.name);
      e
  | None ->
      let e = { fam; order = !next_order; series = Hashtbl.create 4 } in
      incr next_order;
      Hashtbl.replace registry fam.name e;
      e

let make kind ?(help = "") ?buckets name =
  let buckets =
    match (kind, buckets) with
    | Histogram, Some bs ->
        let a = Array.of_list bs in
        Array.sort compare a;
        a
    | Histogram, None -> default_buckets
    | (Counter | Gauge), _ -> [||]
  in
  let fam = { name; kind; help; buckets } in
  locked (fun () -> (register_unlocked fam).fam)

let counter ?help name = make Counter ?help name
let gauge ?help name = make Gauge ?help name
let histogram ?help ?buckets name = make Histogram ?help ?buckets name

let canon labels = List.sort compare labels

let key labels =
  String.concat "\x00"
    (List.map (fun (k, v) -> k ^ "\x01" ^ v) (canon labels))

let fresh_series fam =
  match fam.kind with
  | Counter | Gauge -> Value (ref 0.0)
  | Histogram ->
      Hist
        {
          le = fam.buckets;
          counts = Array.make (Array.length fam.buckets + 1) 0;
          sum = 0.0;
          count = 0;
        }

let series_unlocked fam labels =
  let e = register_unlocked fam in
  let k = key labels in
  match Hashtbl.find_opt e.series k with
  | Some (_, s) -> s
  | None ->
      let s = fresh_series fam in
      Hashtbl.replace e.series k (canon labels, s);
      s

let inc ?(labels = []) ?(by = 1.0) fam =
  if fam.kind <> Counter then
    invalid_arg ("Metrics.inc: " ^ fam.name ^ " is not a counter");
  locked (fun () ->
      match series_unlocked fam labels with
      | Value r -> r := !r +. by
      | Hist _ -> ())

let set ?(labels = []) fam v =
  if fam.kind <> Gauge then
    invalid_arg ("Metrics.set: " ^ fam.name ^ " is not a gauge");
  locked (fun () ->
      match series_unlocked fam labels with Value r -> r := v | Hist _ -> ())

let observe ?(labels = []) fam v =
  if fam.kind <> Histogram then
    invalid_arg ("Metrics.observe: " ^ fam.name ^ " is not a histogram");
  locked (fun () ->
      match series_unlocked fam labels with
      | Value _ -> ()
      | Hist h ->
          h.sum <- h.sum +. v;
          h.count <- h.count + 1;
          let n = Array.length h.le in
          let rec find i =
            if i >= n || v <= h.le.(i) then i else find (i + 1)
          in
          let i = find 0 in
          h.counts.(i) <- h.counts.(i) + 1)

let series_value = function
  | Value r -> !r
  | Hist h -> float_of_int h.count

let value ?(labels = []) fam =
  locked (fun () ->
      match Hashtbl.find_opt registry fam.name with
      | None -> 0.0
      | Some e -> (
          match Hashtbl.find_opt e.series (key labels) with
          | None -> 0.0
          | Some (_, s) -> series_value s))

let total_unlocked fam =
  match Hashtbl.find_opt registry fam.name with
  | None -> 0.0
  | Some e ->
      Hashtbl.fold (fun _ (_, s) acc -> acc +. series_value s) e.series 0.0

let total fam = locked (fun () -> total_unlocked fam)

let bucket_snapshot ?(labels = []) fam =
  locked (fun () ->
      match Hashtbl.find_opt registry fam.name with
      | None -> ([], 0.0, 0)
      | Some e -> (
          match Hashtbl.find_opt e.series (key labels) with
          | Some (_, Hist h) ->
              let acc = ref 0 in
              let cum =
                Array.to_list
                  (Array.mapi
                     (fun i c ->
                       acc := !acc + c;
                       ((if i < Array.length h.le then h.le.(i) else infinity),
                        !acc))
                     h.counts)
              in
              (cum, h.sum, h.count)
          | Some (_, Value _) | None -> ([], 0.0, 0)))

let ordered_entries () =
  Hashtbl.fold (fun _ e acc -> e :: acc) registry []
  |> List.sort (fun a b -> compare a.order b.order)

let families () =
  locked (fun () -> List.map (fun e -> e.fam.name) (ordered_entries ()))

(* --- Prometheus text exposition --------------------------------------- *)

let escape_label_value s =
  let b = Buffer.create (String.length s + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let escape_help s =
  let b = Buffer.create (String.length s + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let fmt_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
             labels)
      ^ "}"

let render_labels_le labels le =
  let le_s = if le = infinity then "+Inf" else Printf.sprintf "%g" le in
  render_labels (labels @ [ ("le", le_s) ])

let exposition () =
  locked @@ fun () ->
  let b = Buffer.create 1024 in
  List.iter
    (fun e ->
      let f = e.fam in
      if f.help <> "" then
        Buffer.add_string b
          (Printf.sprintf "# HELP %s %s\n" f.name (escape_help f.help));
      Buffer.add_string b
        (Printf.sprintf "# TYPE %s %s\n" f.name
           (match f.kind with
           | Counter -> "counter"
           | Gauge -> "gauge"
           | Histogram -> "histogram"));
      let rows =
        Hashtbl.fold (fun k lv acc -> (k, lv) :: acc) e.series []
        |> List.sort compare
      in
      List.iter
        (fun (_, (labels, s)) ->
          match s with
          | Value r ->
              Buffer.add_string b
                (Printf.sprintf "%s%s %s\n" f.name (render_labels labels)
                   (fmt_num !r))
          | Hist h ->
              let acc = ref 0 in
              Array.iteri
                (fun i c ->
                  acc := !acc + c;
                  let le =
                    if i < Array.length h.le then h.le.(i) else infinity
                  in
                  Buffer.add_string b
                    (Printf.sprintf "%s_bucket%s %d\n" f.name
                       (render_labels_le labels le)
                       !acc))
                h.counts;
              Buffer.add_string b
                (Printf.sprintf "%s_sum%s %s\n" f.name (render_labels labels)
                   (fmt_num h.sum));
              Buffer.add_string b
                (Printf.sprintf "%s_count%s %d\n" f.name
                   (render_labels labels) h.count))
        rows)
    (ordered_entries ());
  Buffer.contents b

let summary () =
  locked @@ fun () ->
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "%-42s %-10s %7s %14s\n" "metric" "kind" "series" "total");
  Buffer.add_string b (String.make 76 '-' ^ "\n");
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "%-42s %-10s %7d %14s\n" e.fam.name
           (match e.fam.kind with
           | Counter -> "counter"
           | Gauge -> "gauge"
           | Histogram -> "histogram")
           (Hashtbl.length e.series)
           (fmt_num (total_unlocked e.fam))))
    (ordered_entries ());
  Buffer.contents b

let reset () =
  locked (fun () ->
      Hashtbl.reset registry;
      next_order := 0)
