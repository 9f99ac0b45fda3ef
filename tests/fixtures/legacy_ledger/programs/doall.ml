global a[32];

fn main() {
    for i in 0..32 {
        a[i] = i * i;
    }
    return a[31];
}
