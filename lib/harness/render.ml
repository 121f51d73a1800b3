let pct v = Printf.sprintf "%.1f%%" (100.0 *. v)
let f3 v = Printf.sprintf "%.3f" v

let table ~header rows =
  let all = header :: rows in
  let cols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun m row ->
        match List.nth_opt row c with
        | Some cell -> max m (String.length cell)
        | None -> m)
      0 all
  in
  let widths = List.init cols width in
  let render_row row =
    String.concat "  "
      (List.mapi
         (fun c w ->
           let cell = Option.value ~default:"" (List.nth_opt row c) in
           cell ^ String.make (w - String.length cell) ' ')
         widths)
  in
  let sep =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  String.concat "\n" (render_row header :: sep :: List.map render_row rows) ^ "\n"

let bars ?(unit_label = "") ~title series =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (title ^ "\n");
  let max_v =
    List.fold_left
      (fun m (_, vs) -> List.fold_left (fun m (_, v) -> Float.max m v) m vs)
      1e-9 series
  in
  let label_w =
    List.fold_left (fun m (l, _) -> max m (String.length l)) 0 series
  in
  let series_w =
    List.fold_left
      (fun m (_, vs) -> List.fold_left (fun m (s, _) -> max m (String.length s)) m vs)
      0 series
  in
  let bar_width = 40 in
  List.iter
    (fun (label, vs) ->
      List.iteri
        (fun i (sname, v) ->
          let n = int_of_float (Float.round (float_of_int bar_width *. v /. max_v)) in
          let lab = if i = 0 then label else "" in
          Buffer.add_string buf
            (Printf.sprintf "  %-*s %-*s |%s %.3f%s\n" label_w lab series_w sname
               (String.make (max 0 n) '#')
               v unit_label))
        vs)
    series;
  Buffer.contents buf
